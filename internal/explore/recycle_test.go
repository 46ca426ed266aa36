package explore

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
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
	"TesterSnapshot.reqSlab": true, // the tester's write-once request slab
	"storeSave.data":         true, // a copy-on-write page, shared until written
}

// isSnapshot reports whether t is one of the layers' snapshot structs,
// the only things a cut points to that belong to the cut.
func isSnapshot(t reflect.Type) bool {
	return t.Kind() == reflect.Struct && strings.Contains(strings.ToLower(t.Name()), "snapshot")
}

// owned reports whether t is a snapshot-side record type whose slices,
// maps and snapshot pointers belong to the cut alone (every copy path
// refills them), as opposed to a value copy of a live struct, whose
// references still point into the running system.
func owned(t reflect.Type) bool {
	switch t.Name() {
	case "episode", "variable", "epState":
		return true
	}
	return t.Kind() != reflect.Struct || strings.HasSuffix(t.Name(), "Save") || isSnapshot(t)
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
			poison(v.Field(i), own && !aliased[v.Type().Name()+"."+v.Type().Field(i).Name])
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

func poisonNode(n *node) { poison(reflect.ValueOf(n).Elem(), true) }

// recycleCase is one exploration with its outcome at the parent commit,
// where every cut was a fresh full copy: the result counts and, for
// violating runs, the SHA-256 of the encoded violation artifact.
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
		1, 0, 0, 10, 24887, "c7cacd71b450b53c10af4f31764ee8e5ce1d75d64887915743d54f957533b522"},
	{"nonatomic", viper.BugSet{NonAtomicRMW: true}, exploreSysCfg(), exploreTestCfg(1), 10, 5_000,
		1, 0, 0, 10, 8097, "bb07d913f669a5b28a08e8ef3068ee0d8a044dae09cc6dd7d2f40fd372568f62"},
	{"dropack", viper.BugSet{DropWBAckEvery: 2}, exploreSysCfg(), exploreTestCfg(1), 10, 5_000,
		1, 0, 0, 6, 10873, "fc1b1bc547ba08bc3ec6246d9c965e951d4c507ca1047e3078c85976c46adbfe"},
	{"staleacquire", viper.BugSet{StaleAcquire: true}, exploreBigSetsSys(), exploreRichCfg(2), 10, 5_000,
		1, 0, 0, 10, 191885, "9adc937445a326b5ed384b828acdc323e08b313e00107ac19e94aadaa3e87d40"},
	// …each found on the first schedule, so one more whose violation
	// only shows after 28 backtracks into recycled cuts…
	{"staleacquire-backtracked", viper.BugSet{StaleAcquire: true}, exploreBigSetsSys(), exploreRichCfg(16), 14, 3_000,
		5, 24, 7, 41, 427773, "9335f866dba46b01a2fa16295c1a972dae182234d7918d37a4ed99a2291aaebd"},
	// …and clean explorations, pinned by their exact counts (the last
	// is the reference benchmark's explore_dpor program).
	{"clean-reference", viper.BugSet{}, exploreSysCfg(), exploreTestCfg(1), 6, 100_000,
		64, 0, 0, 63, 0, ""},
	{"clean-wide3", viper.BugSet{}, exploreBigSetsSys(), exploreWideCfg(3), 8, 100_000,
		6, 22, 6, 27, 0, ""},
	{"clean-wide13", viper.BugSet{}, exploreBigSetsSys(), exploreWideCfg(13), 32, 10_000_000,
		896, 1956, 678, 2643, 0, ""},
}

// TestExploreRecycledCutsBitIdentical pins that recycling cut storage
// per DFS depth changes nothing observable: result counts and violating
// artifacts equal the parent commit's byte for byte, also when every
// dead node is poisoned before its storage is reused.
func TestExploreRecycledCutsBitIdentical(t *testing.T) {
	for _, tc := range recycleCases {
		for _, mode := range []struct {
			name string
			hook func(*node)
		}{{"recycled", nil}, {"poisoned", poisonNode}} {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				sys := tc.sys
				sys.Bugs = tc.bugs
				res, err := explore(Config{SysCfg: sys, TestCfg: tc.tc, Depth: tc.depth, Budget: tc.budget, Prune: true}, mode.hook)
				if err != nil {
					t.Fatal(err)
				}
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
