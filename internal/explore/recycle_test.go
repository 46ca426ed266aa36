package explore

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"drftest/internal/core"
	"drftest/internal/harness"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// snapshot takes a cut into fresh storage, as the explorer did before
// cuts were recycled per depth; the snapshot property tests use it.
func (r *run) snapshot() *harness.Checkpoint {
	c := &harness.Checkpoint{}
	r.CheckpointInto(c)
	return c
}

// aliased lists the snapshot fields that share their backing array
// with live state by design, so poison drops the reference instead of
// scribbling through it.
var aliased = map[string]bool{
	"storeSave.blocks":   true, // copy-on-write blocks, shared until written
	"LogSnapshot.sealed": true, // rolling-log chunks, shared with the log by refcount
}

// isSnapshot reports whether t is one of the layers' snapshot structs,
// the only things a cut points to that belong to the cut.
func isSnapshot(t reflect.Type) bool {
	return t.Kind() == reflect.Struct && strings.Contains(strings.ToLower(t.Name()), "snapshot")
}

// owned reports whether t is a snapshot-side record type whose slices,
// maps and snapshot pointers belong to the cut alone (every copy path
// refills them) — a layer's state struct, which its copyFrom refills —
// as opposed to a value copy of a live struct, whose references still
// point into the running system.
func owned(t reflect.Type) bool {
	switch t.Name() {
	case "episode", "variable":
		return true
	}
	return t.Kind() != reflect.Struct || strings.HasSuffix(t.Name(), "Save") || strings.HasSuffix(t.Name(), "State") || isSnapshot(t)
}

// poison scribbles over everything a dead node owns: scalars become
// garbage, owned slices are scribbled over their whole capacity, owned
// maps are emptied and given a garbage entry, and references into the
// live system are dropped. A refill that trusted anything left in
// recycled storage would read this instead of plausible stale state.
func poison(v reflect.Value, own bool) {
	if !v.CanSet() {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(0x5a)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(0xa5)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(-1)
	case reflect.String:
		v.SetString("poison")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name, _, _ := strings.Cut(v.Type().Name(), "[") // a generic type's name without its arguments
			poison(v.Field(i), own && !aliased[name+"."+v.Type().Field(i).Name])
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			poison(v.Index(i), own)
		}
	case reflect.Slice:
		if !own || v.IsNil() {
			v.SetZero()
			return
		}
		all := v.Slice(0, v.Cap())
		for i := 0; i < all.Len(); i++ {
			poison(all.Index(i), owned(v.Type().Elem()))
		}
	case reflect.Map:
		if !own || v.IsNil() {
			v.SetZero()
			return
		}
		v.Clear()
		key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		poison(key, false)
		poison(val, false)
		v.SetMapIndex(key, val)
	case reflect.Pointer:
		if own && !v.IsNil() && isSnapshot(v.Type().Elem()) {
			poison(v.Elem(), true)
			return
		}
		v.SetZero()
	case reflect.Interface:
		if e := v.Elem(); own && e.IsValid() && e.Kind() == reflect.Pointer {
			p := reflect.New(e.Type()).Elem()
			p.Set(e)
			poison(p, true)
			if !p.IsNil() {
				return // a snapshot pointer: poisoned in place, kept
			}
		}
		v.SetZero()
	default: // func, chan, unsafe pointer
		v.SetZero()
	}
}

// poisonStorage poisons a node or cut about to be refilled.
func poisonStorage(v any) { poison(reflect.ValueOf(v).Elem(), true) }

// recycleCase is one exploration with its outcome at the commit where
// every cut was a fresh full copy: the result counts and, for violating
// runs, the SHA-256 of the encoded violation artifact — re-pinned
// without the retired "StreamInline" key of its testCfg, the one line
// its bytes lost since.
type recycleCase struct {
	name string
	bugs viper.BugSet
	sys  viper.Config
	tc   core.Config

	depth  int
	budget uint64

	schedules, prunedPaths, prunedBranches, choicePoints uint64
	artifactLen                                          int
	artifactSHA                                          string
}

var recycleCases = []recycleCase{
	// The four injected bugs of TestExploreFindsInjectedBugs…
	{"lostwrite", viper.BugSet{LostWriteRace: true}, exploreSysCfg(), exploreSpreadCfg(3), 10, 5_000,
		1, 0, 0, 10, 24858, "d048052c991141aae38e09f4425b3e3f651aca5da8311c5dadc68549fa9f49ba"},
	{"nonatomic", viper.BugSet{NonAtomicRMW: true}, exploreSysCfg(), exploreTestCfg(1), 10, 5_000,
		1, 0, 0, 10, 8068, "60b2b588eeaf8a17c6251c0b724e7a0110876814b1a433b8f2097a804897f144"},
	{"dropack", viper.BugSet{DropWBAckEvery: 2}, exploreSysCfg(), exploreTestCfg(1), 10, 5_000,
		1, 0, 0, 6, 10844, "1c7b11aebaa3c8558a280bc89d27042bddcf1f212492b7c4c79278868e3585bd"},
	{"staleacquire", viper.BugSet{StaleAcquire: true}, exploreBigSetsSys(), exploreRichCfg(2), 10, 5_000,
		1, 0, 0, 10, 191856, "73094f0aa52e128e9eb5f188408632a74e9e2e93bcbe941434059238a599d036"},
	// …each found on the first schedule, so one more whose violation
	// only shows after 28 backtracks into recycled cuts…
	{"staleacquire-backtracked", viper.BugSet{StaleAcquire: true}, exploreBigSetsSys(), exploreRichCfg(16), 14, 3_000,
		5, 24, 7, 41, 427744, "3638fcf49fe53dd80b5913b6c383e5401127e2a45af5618f21a3e1b567fb61d3"},
	// …and clean explorations, pinned by their exact counts (the last
	// is the reference benchmark's explore_dpor program).
	{"clean-reference", viper.BugSet{}, exploreSysCfg(), exploreTestCfg(1), 6, 100_000,
		64, 0, 0, 63, 0, ""},
	{"clean-wide3", viper.BugSet{}, exploreBigSetsSys(), exploreWideCfg(3), 8, 100_000,
		6, 22, 6, 27, 0, ""},
	{"clean-wide13", viper.BugSet{}, exploreBigSetsSys(), exploreWideCfg(13), 32, 10_000_000,
		896, 1956, 678, 2643, 0, ""},
}

// explorer builds the case's one-worker exploration with the given
// rewind bound and reuse hook.
func (tc recycleCase) explorer(bound int, hook func(any)) *explorer {
	sys := tc.sys
	sys.Bugs = tc.bugs
	x := newExplorer(Config{SysCfg: sys, TestCfg: tc.tc, Depth: tc.depth, Budget: tc.budget, Prune: true, Workers: 1})
	x.replayBound, x.beforeReuse = bound, hook
	return x
}

// check compares an exploration's outcome with the case's goldens.
func (tc recycleCase) check(t *testing.T, res *Result) {
	t.Helper()
	if res.Schedules != tc.schedules || res.PrunedPaths != tc.prunedPaths ||
		res.PrunedBranches != tc.prunedBranches || res.ChoicePoints != tc.choicePoints {
		t.Fatalf("schedules/prunedPaths/prunedBranches/choicePoints = %d/%d/%d/%d, want %d/%d/%d/%d",
			res.Schedules, res.PrunedPaths, res.PrunedBranches, res.ChoicePoints,
			tc.schedules, tc.prunedPaths, tc.prunedBranches, tc.choicePoints)
	}
	if tc.artifactSHA == "" {
		if res.Violation != nil {
			t.Fatalf("clean exploration reported a violation: %+v", res.Violation)
		}
		return
	}
	if res.Artifact == nil {
		t.Fatalf("no violating artifact: %+v", res)
	}
	data, err := res.Artifact.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != tc.artifactLen || got != tc.artifactSHA {
		t.Fatalf("artifact is %d bytes, sha256 %s; the parent commit's was %d bytes, sha256 %s",
			len(data), got, tc.artifactLen, tc.artifactSHA)
	}
}

// TestExploreRunUntraced pins that exploring pays nothing for the
// trace: the explorer's run has no ring and its cuts carry no ring
// snapshot, while a violation's artifact still embeds the trace tail
// of its traced re-run (the SHA-256 pins above are the parent's bytes).
func TestExploreRunUntraced(t *testing.T) {
	tc := recycleCases[0]
	x := tc.explorer(replayBound, nil)
	e := x.main
	if e.run.Ring != nil {
		t.Fatal("the explorer's run is traced")
	}
	res, err := x.explore()
	if err != nil {
		t.Fatal(err)
	}
	tc.check(t, res)
	if !e.rooted || res.Cuts == 0 {
		t.Fatal("no cut was taken")
	}
	for i, c := range append([]*harness.Checkpoint{&e.root}, e.free...) {
		if ring := reflect.ValueOf(c).Elem().FieldByName("ring"); !ring.IsNil() {
			t.Fatalf("cut %d holds a ring snapshot", i)
		}
	}
	if art := res.Artifact; art.TraceCapacity == 0 || len(art.Trace) == 0 {
		t.Fatalf("the violation's artifact has no trace (capacity %d, %d entries)", art.TraceCapacity, len(art.Trace))
	}
}

// reuseModes are the two ways a dead node's storage, and a freed cut,
// reach their next decision: as they were left, and poisoned.
var reuseModes = []struct {
	name string
	hook func(any)
}{{"recycled", nil}, {"poisoned", poisonStorage}}

// TestExploreRecycledCutsBitIdentical pins that recycling cut storage
// per DFS depth changes nothing observable: result counts and violating
// artifacts equal the parent commit's byte for byte, also when every
// dead node is poisoned before its storage is reused.
func TestExploreRecycledCutsBitIdentical(t *testing.T) {
	for _, tc := range recycleCases {
		for _, mode := range reuseModes {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				res, err := tc.explorer(replayBound, mode.hook).explore()
				if err != nil {
					t.Fatal(err)
				}
				tc.check(t, res)
			})
		}
	}
}

// replayWatch sits between the kernel and the engine and measures every
// replay from outside: the calls a rewind spends before the engine
// resumes its target decision.
type replayWatch struct {
	e                   *engine
	run, longest, total int
}

func (w *replayWatch) Choose(now sim.Tick, cands []sim.Enabled) int {
	replaying := w.e.resume
	i := w.e.Choose(now, cands)
	if replaying {
		if w.e.resume {
			w.run++
			w.total++
		} else {
			w.longest, w.run = max(w.longest, w.run), 0
		}
	}
	return i
}

// TestRewindPolicyEquivalent pins that where a rewind restores from
// changes what it costs and nothing else. Every recycle case, recycled
// and poisoned, runs with a cut at every choice point (bound 0), at the
// shipped bound, and at the root only (unbounded): every Result field
// but the wall-clock means, Cuts and ReplayedEvents is identical, every
// artifact keeps its SHA-256, cuts fall as the bound grows, and no
// replay is longer than the bound.
func TestRewindPolicyEquivalent(t *testing.T) {
	for _, tc := range recycleCases {
		for _, mode := range reuseModes {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				var first Result
				var cuts uint64
				for i, bound := range []int{0, replayBound, math.MaxInt} {
					x := tc.explorer(bound, mode.hook)
					w := &replayWatch{e: x.main}
					x.main.run.K.SetChooser(w)
					res, err := x.explore()
					if err != nil {
						t.Fatal(err)
					}
					tc.check(t, res)
					if w.longest > bound || w.total != int(res.ReplayedEvents) {
						t.Fatalf("bound %d: longest replay %d, %d events replayed; result says %d",
							bound, w.longest, w.total, res.ReplayedEvents)
					}
					t.Logf("bound %d: %d cuts for %d choice points, %d rewinds replaying %d events (longest %d)",
						bound, res.Cuts, res.ChoicePoints, res.Restores, res.ReplayedEvents, w.longest)
					switch {
					case bound == 0 && (res.Cuts != res.ChoicePoints || res.ReplayedEvents != 0),
						bound == math.MaxInt && res.Cuts != 1,
						i > 0 && res.Cuts > cuts:
						t.Fatalf("bound %d: %d cuts for %d choice points (%d at the bound before), %d events replayed",
							bound, res.Cuts, res.ChoicePoints, cuts, res.ReplayedEvents)
					}
					cuts = res.Cuts
					got := *res
					got.NsPerCut, got.NsPerRestore, got.Cuts, got.ReplayedEvents = 0, 0, 0, 0
					if i == 0 {
						first = got
						continue
					}
					if !reflect.DeepEqual(got, first) {
						t.Fatalf("bound %d diverged from a cut at every choice point:\n  got:  %+v\n  want: %+v", bound, got, first)
					}
				}
			})
		}
	}
}

// cutAt is a FIFO chooser that takes a cut into c from inside Choose
// call number at, counting the objects that allocates.
type cutAt struct {
	r       *run
	c       *harness.Checkpoint
	calls   int
	at      int
	mallocs uint64
}

func (c *cutAt) Choose(now sim.Tick, cands []sim.Enabled) int {
	if c.calls++; c.calls == c.at {
		before := mallocs()
		c.r.CheckpointInto(c.c)
		c.mallocs = mallocs() - before
	}
	return 0
}

// TestExploreScheduleAllocs pins what a schedule of the reference
// explore_dpor program (clean-wide13) costs the allocator. Every clean
// schedule's verdict after the first (which grows Finish's scratch and
// the cache journal) allocates nothing: Violated answers without
// building a Report, and Stream.Finish sorts in its own scratch. The
// whole one-worker exploration, building its run included (the
// benchmark's allocs_per_op), stays at most 2 objects per schedule:
// 1 240 for 896 schedules with the collector held off (about 330 more
// under the race detector, or when the process builds its protocol
// specs here), against 1 335 while the line and message pools grew by
// the object, 2 880 with a cut storage slot per depth and a slice per
// saved line, fold and episode, and 9 787 with a cut at every choice
// point and a Report per verdict.
func TestExploreScheduleAllocs(t *testing.T) {
	tc := recycleCases[len(recycleCases)-1]
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := mallocs()
	x := tc.explorer(replayBound, nil)
	e := x.main
	e.begin(x.root)
	for {
		e.run.K.RunUntilIdle()
		warm := !e.aborted && e.res.Schedules > 0
		before := mallocs()
		stop := e.scheduleDone()
		if n := mallocs() - before; warm && n > 0 {
			t.Fatalf("schedule %d: the verdict allocated %d objects", e.res.Schedules, n)
		}
		if stop || !e.backtrack() {
			break
		}
	}
	if x.next(x.root) != nil {
		t.Fatal("a one-worker exploration handed out a second task")
	}
	res, err := x.result()
	total := mallocs() - start
	if err != nil {
		t.Fatal(err)
	}
	tc.check(t, res)
	t.Logf("%d objects for %d schedules: %.3f per schedule", total, tc.schedules, float64(total)/float64(tc.schedules))
	if total > 2*tc.schedules {
		t.Fatalf("%d objects for %d schedules, want at most 2 per schedule", total, tc.schedules)
	}
}

// TestExploreTwoWorkerAllocs pins what a second worker costs: two
// workers explore the reference program for at most 3.22 objects per
// schedule, both runs' builds included — no more than one worker cost
// before cuts came from a free list and snapshots stored their state
// flat. Steal timing moves the count by a few percent, so the pin is
// on the median of three explorations (about 2 120, 2.37 per
// schedule; 2 300 while the line and message pools grew by the
// object). The race detector's own allocations are out of scope.
func TestExploreTwoWorkerAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts include the race detector's")
	}
	tc := recycleCases[len(recycleCases)-1]
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []uint64
	for i := 0; i < 3; i++ {
		x := tc.explorer(replayBound, nil)
		x.cfg.Workers = 2
		start := mallocs()
		res, err := x.explore()
		counts = append(counts, mallocs()-start)
		if err != nil {
			t.Fatal(err)
		}
		tc.check(t, res)
	}
	slices.Sort(counts)
	t.Logf("objects per exploration %v for %d schedules", counts, tc.schedules)
	if median := counts[1]; median*100 > 322*tc.schedules {
		t.Fatalf("median %d objects for %d schedules, want at most 3.22 per schedule", median, tc.schedules)
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// TestCutSteadyStateAllocs pins what a choice point costs the
// allocator once its depth's storage is warm: refilling the recycled
// cut and restoring it — the reference explore_dpor program, a cut
// mid-run with episodes, stalls and messages in flight — allocates
// nothing. The first restore still warms the live side's free lists;
// every table, wait-list and slice of the cut is a refill from the
// second on (a fresh full-copy cut took 297 objects).
func TestCutSteadyStateAllocs(t *testing.T) {
	const at = 120
	cfg := Config{SysCfg: exploreBigSetsSys(), TestCfg: exploreWideCfg(13)}
	r := newRun(&cfg)
	ch := &cutAt{r: r, c: &harness.Checkpoint{}, at: at}
	r.K.SetChooser(ch)
	r.Tester.Start()
	r.K.RunUntilIdle() // the warm descent: the cut's first fill
	if ch.calls < at {
		t.Fatalf("run too short: %d Choose calls, need %d", ch.calls, at)
	}
	for round := 0; round < 4; round++ {
		before := mallocs()
		r.Restore(ch.c)
		restore := mallocs() - before
		ch.calls = at - 1 // the restored kernel re-presents decision at
		r.K.RunUntilIdle()
		t.Logf("round %d: restore %d + refill %d objects", round, restore, ch.mallocs)
		if round > 1 && restore+ch.mallocs > 0 {
			t.Fatalf("round %d: restore + recycled cut allocated %d + %d objects, want none", round, restore, ch.mallocs)
		}
	}
}
