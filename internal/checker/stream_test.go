package checker

import (
	"fmt"
	"testing"

	"drftest/internal/rng"
)

// genTrace builds a tester-shaped random trace: threads run episodes
// sequentially, create/retire draw from one global counter, and every
// op is appended at its global completion point — the same ordering
// contract the tester's recorder provides. Knobs inject the bug
// classes the axioms exist to catch: corrupted load values, duplicate
// atomic old values, and claim-discipline breaking (concurrent
// writers), so the generated corpus exercises every checker path.
type genCfg struct {
	threads   int
	episodes  int // per thread
	opsPerEp  int
	dataVars  int
	syncVars  int
	corruptPM int // per-mille chance a load value is corrupted
	dupAtomPM int // per-mille chance an atomic old value duplicates
	// private gives each thread a disjoint variable set, enforcing the
	// tester's claim discipline so the run is genuinely DRF; without
	// it threads race on shared variables and both checkers must flag
	// the overlaps identically.
	private bool
	delta   uint32
}

func genTrace(seed uint64, cfg genCfg) *Trace {
	r := rng.New(seed, 0x5EED)
	tr := &Trace{AtomicDelta: cfg.delta}
	type liveEp struct {
		id      uint64
		opsLeft int
		seq     int
		writes  map[int]uint32
		sync    int
	}
	var (
		gseq    uint64
		nextID  uint64
		live    = make([]*liveEp, cfg.threads)
		done    = make([]int, cfg.threads)
		atomics = make([]uint32, cfg.syncVars)             // next old value per sync var
		retired = make([]uint32, cfg.threads*cfg.dataVars) // globally visible values
		metas   = map[uint64]*EpisodeMeta{}
	)
	for {
		th := int(r.Intn(cfg.threads))
		if live[th] == nil {
			if done[th] >= cfg.episodes {
				allDone := true
				for t := 0; t < cfg.threads; t++ {
					if done[t] < cfg.episodes || live[t] != nil {
						allDone = false
						break
					}
				}
				if allDone {
					break
				}
				continue
			}
			nextID++
			gseq++
			live[th] = &liveEp{id: nextID, opsLeft: cfg.opsPerEp,
				writes: map[int]uint32{}, sync: int(r.Intn(cfg.syncVars))}
			metas[nextID] = &EpisodeMeta{ID: nextID, Thread: th, CreateSeq: gseq}
			continue
		}
		ep := live[th]
		ep.seq++
		if ep.opsLeft == cfg.opsPerEp || ep.opsLeft == 1 {
			// bracket the episode with atomics on its sync var
			old := atomics[ep.sync]
			atomics[ep.sync] += cfg.delta
			if int(r.Intn(1000)) < cfg.dupAtomPM && old >= cfg.delta {
				old -= cfg.delta // duplicate a previous old value
			}
			tr.Ops = append(tr.Ops, Op{Kind: OpAtomic, Var: 1000 + ep.sync, Sync: true,
				Value: old, Thread: th, Episode: ep.id, Seq: ep.seq})
		} else {
			v := int(r.Intn(cfg.dataVars))
			if cfg.private {
				v += th * cfg.dataVars
			}
			if r.Bool(0.4) {
				val := uint32(r.Intn(1 << 16))
				ep.writes[v] = val
				tr.Ops = append(tr.Ops, Op{Kind: OpStore, Var: v,
					Value: val, Thread: th, Episode: ep.id, Seq: ep.seq})
			} else {
				val, own := ep.writes[v]
				if !own {
					val = retired[v]
				}
				if int(r.Intn(1000)) < cfg.corruptPM {
					val += 7
				}
				tr.Ops = append(tr.Ops, Op{Kind: OpLoad, Var: v,
					Value: val, Thread: th, Episode: ep.id, Seq: ep.seq})
			}
		}
		ep.opsLeft--
		if ep.opsLeft == 0 {
			gseq++
			metas[ep.id].RetireSeq = gseq
			for v, val := range ep.writes {
				retired[v] = val
			}
			live[th] = nil
			done[th]++
		}
	}
	ids := make([]uint64, 0, len(metas))
	for id := range metas {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		tr.Episodes = append(tr.Episodes, *metas[id])
	}
	return tr
}

func diffViolations(t *testing.T, name string, got, want []Violation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: stream found %d violations, post-hoc %d\nstream: %v\npost-hoc: %v",
			name, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: violation %d differs\nstream:   %v\npost-hoc: %v", name, i, got[i], want[i])
		}
	}
}

// TestStreamMatchesPostHocHandTraces checks exact violation equality
// (content and order) on the hand-built fixtures, including every
// mutated variant the axiom tests use.
func TestStreamMatchesPostHocHandTraces(t *testing.T) {
	cases := map[string]func() *Trace{
		"good": goodTrace,
		"duplicate-atomic": func() *Trace {
			tr := goodTrace()
			tr.Ops[4].Value = 1
			return tr
		},
		"overlapping-writers": func() *Trace {
			tr := goodTrace()
			tr.Episodes[1].CreateSeq = 1
			tr.Ops[5] = Op{Kind: OpStore, Var: 5, Value: 9, Thread: 1, Episode: 2, Seq: 2}
			return tr
		},
		"stale-read": func() *Trace {
			tr := goodTrace()
			tr.Ops[5].Value = 0
			return tr
		},
		"own-write": func() *Trace {
			tr := goodTrace()
			tr.Ops[2].Value = 7
			return tr
		},
		"unknown-episode": func() *Trace {
			tr := goodTrace()
			tr.Ops[1].Episode = 99
			return tr
		},
		"never-retired": func() *Trace {
			tr := goodTrace()
			tr.Episodes[1].RetireSeq = 0
			return tr
		},
	}
	for name, build := range cases {
		diffViolations(t, name, Verify(build()), VerifyPostHoc(build()))
	}
}

// TestStreamMatchesPostHocRandom cross-checks the streaming checker
// against the post-hoc oracle on randomized tester-shaped traces:
// clean runs, value-corrupted runs, duplicate-atomic runs, and
// mixed-bug runs, across several shapes and seeds.
func TestStreamMatchesPostHocRandom(t *testing.T) {
	shapes := []genCfg{
		{threads: 1, episodes: 40, opsPerEp: 6, dataVars: 4, syncVars: 2, delta: 1},
		{threads: 4, episodes: 30, opsPerEp: 5, dataVars: 6, syncVars: 3, delta: 1},
		{threads: 8, episodes: 20, opsPerEp: 8, dataVars: 3, syncVars: 2, delta: 4},
	}
	bugs := []struct {
		name                 string
		corruptPM, dupAtomPM int
		private              bool
	}{
		{"clean", 0, 0, true},
		{"racy-shared-vars", 0, 0, false},
		{"corrupt-loads", 40, 0, true},
		{"dup-atomics", 0, 60, true},
		{"mixed", 25, 25, false},
	}
	for si, shape := range shapes {
		for _, bug := range bugs {
			cfg := shape
			cfg.corruptPM, cfg.dupAtomPM, cfg.private = bug.corruptPM, bug.dupAtomPM, bug.private
			for seed := uint64(0); seed < 5; seed++ {
				tr := genTrace(seed*977+uint64(si), cfg)
				name := fmt.Sprintf("shape%d/%s/seed%d", si, bug.name, seed)
				diffViolations(t, name, Verify(tr), VerifyPostHoc(tr))
				if bug.name == "clean" {
					if vs := Verify(tr); vs != nil {
						t.Fatalf("%s: clean trace flagged: %v", name, vs)
					}
				}
			}
		}
	}
}

// TestExclusivityDedupTyped is the regression test for the typed A2
// dedup key: an episode touching the same variable many times must
// produce exactly one interval, so an overlap is reported once per
// episode pair — not once per access.
func TestExclusivityDedupTyped(t *testing.T) {
	tr := &Trace{
		AtomicDelta: 1,
		Episodes: []EpisodeMeta{
			{ID: 1, CreateSeq: 1, RetireSeq: 4},
			{ID: 2, CreateSeq: 2, RetireSeq: 5},
		},
		Ops: []Op{
			// both episodes hammer var 5 with multiple stores each
			{Kind: OpStore, Var: 5, Value: 1, Episode: 1, Seq: 1},
			{Kind: OpStore, Var: 5, Value: 2, Episode: 1, Seq: 2},
			{Kind: OpStore, Var: 5, Value: 3, Episode: 2, Seq: 1},
			{Kind: OpStore, Var: 5, Value: 4, Episode: 2, Seq: 2},
			{Kind: OpStore, Var: 5, Value: 5, Episode: 1, Seq: 3},
		},
	}
	for name, verify := range map[string]func(*Trace) []Violation{"stream": Verify, "post-hoc": VerifyPostHoc} {
		vs := verify(tr)
		n := 0
		for _, v := range vs {
			if v.Axiom == "A2-exclusivity" {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("%s: %d A2 violations for one overlapping pair, want 1 (dedup broken): %v", name, n, vs)
		}
	}
	diffViolations(t, "dedup", Verify(tr), VerifyPostHoc(tr))
}

// streamFootprint sums the retained state sizes that must stay
// bounded regardless of how many episodes have passed through.
func (s *Stream) streamFootprint() int {
	n := s.eps.Len() + (len(s.liveQ) - s.liveHead)
	s.data.Each(func(_ int, v **varState) { n += len((*v).intervals) + len((*v).writers) })
	s.atomics.Each(func(_ int, a **atomicState) { n += (*a).npend + (*a).pending.Len() })
	return n
}

// TestStreamMemoryBounded runs a long clean workload through the
// stream and asserts the resident state does not grow with episode
// count: the fold is per-variable and per-live-episode, never
// per-retired-episode.
func TestStreamMemoryBounded(t *testing.T) {
	const threads, vars, syncs = 4, 3, 2
	s := NewStream(1)
	r := rng.New(11, 3)
	atomics := make([]uint32, syncs)
	retired := make([]uint32, vars)
	var gseq, id uint64
	high := 0
	for epi := 0; epi < 50000; epi++ {
		id++
		gseq++
		create := gseq
		sv := int(r.Intn(syncs))
		s.BeginEpisode(id, create)
		s.Observe(Op{Kind: OpAtomic, Var: 1000 + sv, Sync: true, Value: atomics[sv], Episode: id, Seq: 1})
		atomics[sv]++
		v := int(r.Intn(vars))
		val := uint32(r.Intn(1 << 16))
		s.Observe(Op{Kind: OpStore, Var: v, Value: val, Episode: id, Seq: 2})
		s.Observe(Op{Kind: OpLoad, Var: v, Value: val, Episode: id, Seq: 3})
		v2 := int(r.Intn(vars))
		if v2 != v {
			s.Observe(Op{Kind: OpLoad, Var: v2, Value: retired[v2], Episode: id, Seq: 4})
		}
		s.Observe(Op{Kind: OpAtomic, Var: 1000 + sv, Sync: true, Value: atomics[sv], Episode: id, Seq: 5})
		atomics[sv]++
		gseq++
		s.RetireEpisode(id, gseq)
		retired[v] = val
		if f := s.streamFootprint(); f > high {
			high = f
		}
	}
	// One episode live at a time over 3 data and 2 sync vars: the
	// retained fold should be a small constant, nowhere near the 50k
	// episodes retired.
	if high > 64 {
		t.Fatalf("stream retained up to %d state entries over 50000 episodes; fold is not bounded", high)
	}
	if vs := s.Finish(); vs != nil {
		t.Fatalf("clean long run flagged: %v", vs)
	}
}

// TestStreamSteadyStateAllocs pins the hot path: after warmup, a full
// begin/observe/retire episode cycle allocates nothing.
func TestStreamSteadyStateAllocs(t *testing.T) {
	s := NewStream(1)
	var gseq, id uint64
	var atomic uint32
	cycle := func() {
		id++
		gseq++
		s.BeginEpisode(id, gseq)
		s.Observe(Op{Kind: OpAtomic, Var: 1000, Sync: true, Value: atomic, Episode: id, Seq: 1})
		atomic++
		s.Observe(Op{Kind: OpStore, Var: 1, Value: uint32(id), Episode: id, Seq: 2})
		s.Observe(Op{Kind: OpLoad, Var: 1, Value: uint32(id), Episode: id, Seq: 3})
		s.Observe(Op{Kind: OpAtomic, Var: 1000, Sync: true, Value: atomic, Episode: id, Seq: 4})
		atomic++
		gseq++
		s.RetireEpisode(id, gseq)
	}
	for i := 0; i < 100; i++ {
		cycle() // warm up free lists and per-var state
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("steady-state episode cycle allocates %v allocs, want 0", n)
	}
}

// TestStreamVarSlabSteadyStateAllocs pins the warm-up: a reused stream
// folds a run over fresh variables — each with an interval and a
// writer or two, the shape that used to cost a record and up to five
// slice growths per variable — without allocating, because Reset
// rewound the slab.
func TestStreamVarSlabSteadyStateAllocs(t *testing.T) {
	s := NewStream(1)
	run := func() {
		s.Reset(1)
		var gseq uint64
		for id := uint64(1); id <= 4; id++ {
			gseq++
			s.BeginEpisode(id, gseq)
			for v := 0; v < 3*varChunk; v++ {
				s.Observe(Op{Kind: OpStore, Var: v, Value: uint32(id), Episode: id, Seq: v})
			}
			gseq++
			s.RetireEpisode(id, gseq)
		}
		if vs := s.Finish(); vs != nil {
			t.Fatalf("clean run flagged: %v", vs)
		}
	}
	run() // builds the slab, the tables and the episode records
	// What is left is Finish's sorted sync-variable list.
	if n := testing.AllocsPerRun(10, run); n > 1 {
		t.Fatalf("a run on a reset stream allocates %v objects, want at most 1", n)
	}
	if s.varNext != 3*varChunk || len(s.varSlab) != 3 {
		t.Fatalf("slab holds %d records in %d chunks, want %d in 3", s.varNext, len(s.varSlab), 3*varChunk)
	}
}

// TestStreamResetAfterRestore pins the slab against its free list: a
// Restore parks the records it displaced in varFree, and a Reset that
// rewound the slab under them would hand each record out twice.
func TestStreamResetAfterRestore(t *testing.T) {
	tr := pipelineCorpus()["racy"]
	evs := traceEvents(tr)
	cut := 0 // an early cut: most variables are still untouched
	for ops := 0; ops < 4; cut++ {
		if evs[cut].kind == evOp {
			ops++
		}
	}
	p := newPipeline(tr.AtomicDelta, true)
	feed(p, evs[:cut])
	snap := p.Snapshot()
	feed(p, evs[cut:])
	want := p.Finish()
	p.Restore(snap) // displaces the finished run's records, refills a few
	if len(p.stream.varFree) == 0 {
		t.Fatal("the restore left no displaced record parked")
	}
	p.Reset(tr.AtomicDelta)
	feed(p, evs)
	diffViolations(t, "reset after restore", p.Finish(), want)
}
