package checker

import (
	"runtime"
	"sort"
	"testing"
	"time"
)

// traceEvents flattens a trace into the begin/op/retire fold order
// Verify uses, so the same sequence can be replayed through a Stream
// that folds on the caller or a threaded one and the outputs compared.
func traceEvents(tr *Trace) []streamEvent {
	metas := make(map[uint64]*EpisodeMeta, len(tr.Episodes))
	byCreate := make([]*EpisodeMeta, 0, len(tr.Episodes))
	var retires []*EpisodeMeta
	for i := range tr.Episodes {
		m := &tr.Episodes[i]
		metas[m.ID] = m
		byCreate = append(byCreate, m)
		if m.RetireSeq != 0 {
			retires = append(retires, m)
		}
	}
	sort.Slice(byCreate, func(i, j int) bool { return byCreate[i].CreateSeq < byCreate[j].CreateSeq })
	sort.Slice(retires, func(i, j int) bool { return retires[i].RetireSeq < retires[j].RetireSeq })
	var evs []streamEvent
	for _, m := range byCreate {
		evs = append(evs, streamEvent{kind: evBegin, id: m.ID, seq: m.CreateSeq})
	}
	ri := 0
	for _, op := range tr.Ops {
		if m := metas[op.Episode]; m != nil {
			for ri < len(retires) && retires[ri].RetireSeq < m.CreateSeq {
				evs = append(evs, streamEvent{kind: evRetire, id: retires[ri].ID, seq: retires[ri].RetireSeq})
				ri++
			}
		}
		evs = append(evs, streamEvent{kind: evOp, op: op})
	}
	for ; ri < len(retires); ri++ {
		evs = append(evs, streamEvent{kind: evRetire, id: retires[ri].ID, seq: retires[ri].RetireSeq})
	}
	return evs
}

// feed folds evs into s through its public entry points.
func feed(s *Stream, evs []streamEvent) {
	for _, e := range evs {
		switch e.kind {
		case evOp:
			s.Observe(e.op)
		case evBegin:
			s.BeginEpisode(e.id, e.seq)
		case evRetire:
			s.RetireEpisode(e.id, e.seq)
		}
	}
}

// threadedStream is an online stream that folds through the ring
// whatever GOMAXPROCS is, so a single-CPU runner exercises the handoff.
func threadedStream(atomicDelta uint32) *Stream {
	s := NewStream(atomicDelta)
	s.ring = newRing()
	return s
}

// settle waits for the goroutine count to drop to n: a retired worker
// has closed its done channel, but may take a moment to exit.
func settle(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, want %d: a worker outlived its retirement", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// pipelineCorpus: traces long enough to wrap the event ring several
// times (ops ≫ ringSize exercises backpressure), covering a
// clean run and every injected bug class.
func pipelineCorpus() map[string]*Trace {
	return map[string]*Trace{
		"clean": genTrace(11, genCfg{threads: 8, episodes: 24, opsPerEp: 40,
			dataVars: 32, syncVars: 4, private: true, delta: 1}),
		"corrupt-loads": genTrace(12, genCfg{threads: 8, episodes: 24, opsPerEp: 40,
			dataVars: 32, syncVars: 4, private: true, corruptPM: 20, delta: 1}),
		"dup-atomics": genTrace(13, genCfg{threads: 8, episodes: 24, opsPerEp: 40,
			dataVars: 32, syncVars: 4, private: true, dupAtomPM: 30, delta: 2}),
		"racy": genTrace(14, genCfg{threads: 8, episodes: 24, opsPerEp: 40,
			dataVars: 16, syncVars: 4, private: false, corruptPM: 10, delta: 1}),
	}
}

// TestPipelineMatchesInline pins the ring's whole contract: threaded
// and inline folding produce identical violations, in content and
// order, on clean and buggy traces — including traces several times
// the ring capacity, where the producer had to spin on backpressure.
// Run under -race this also vets the SPSC handoff.
func TestPipelineMatchesInline(t *testing.T) {
	for name, tr := range pipelineCorpus() {
		evs := traceEvents(tr)
		if len(evs) <= ringSize {
			t.Fatalf("%s: trace too small (%d events) to wrap the %d-slot ring", name, len(evs), ringSize)
		}
		inline := NewStream(tr.AtomicDelta)
		feed(inline, evs)
		want := inline.Finish()

		threaded := threadedStream(tr.AtomicDelta)
		feed(threaded, evs)
		got := threaded.Finish()
		diffViolations(t, name, got, want)

		// And both match the reference checker on the same trace.
		diffViolations(t, name+"/post-hoc", got, VerifyPostHoc(tr))
	}
}

// TestPipelineFlushQuiesces checks that a cut flushes the ring: once
// Snapshot returns, every event handed to the worker is folded.
func TestPipelineFlushQuiesces(t *testing.T) {
	s := threadedStream(1)
	s.BeginEpisode(1, 1)
	for i := 0; i < 3*ringSize; i++ {
		s.Observe(Op{Kind: OpStore, Var: 0, Value: uint32(i), Episode: 1, Seq: i})
	}
	s.Snapshot()
	if v, ok := s.epState(1).own(0); !ok || v != uint32(3*ringSize-1) {
		t.Fatalf("after the cut the last store is not folded: got %d (ok=%v)", v, ok)
	}
	s.Finish()
}

// TestPipelinePublishBatch pins the batched hand-off: events short of a
// batch boundary stay private to the producer, the boundary publishes
// them, and Finish, Reset and a cut each account for an unpublished
// remainder — Finish reports it, Reset drops nothing into the next
// run, a cut folds it.
func TestPipelinePublishBatch(t *testing.T) {
	s := threadedStream(1)
	r := s.ring
	store := func(i int) { s.Observe(Op{Kind: OpStore, Var: 0, Value: uint32(i), Episode: 1, Seq: i}) }
	folded := func(at string, want int) {
		t.Helper()
		if wr, tail, head := r.wr, r.tail.Load(), r.head.Load(); wr != tail || tail != head {
			t.Fatalf("%s: wr %d, tail %d, head %d are not one index", at, wr, tail, head)
		}
		if v, ok := s.epState(1).own(0); !ok || v != uint32(want) {
			t.Fatalf("%s: last folded store is %d (ok=%v), want %d", at, v, ok, want)
		}
	}
	s.BeginEpisode(1, 1)
	for i := 1; i < publishBatch-1; i++ {
		store(i)
	}
	if tail := r.tail.Load(); tail != 0 || r.wr != publishBatch-1 {
		t.Fatalf("short of the boundary: tail %d, wr %d, want 0 and %d", tail, r.wr, publishBatch-1)
	}
	store(publishBatch - 1) // the boundary publishes
	if tail := r.tail.Load(); tail != publishBatch {
		t.Fatalf("at the boundary: tail %d, want %d", tail, publishBatch)
	}
	store(publishBatch)
	s.Finish()
	folded("Finish of a part batch", publishBatch)

	s.Reset(1)
	if r.wr != 0 || r.tail.Load() != 0 || r.head.Load() != 0 {
		t.Fatalf("Reset left wr %d, tail %d, head %d", r.wr, r.tail.Load(), r.head.Load())
	}
	s.BeginEpisode(1, 1)
	store(7)
	s.Snapshot()
	folded("Snapshot of a part batch", 7)
	s.Finish()
}

// TestPipelineReset pins run-to-run reuse: a threaded stream reset
// between traces keeps its ring and reports exactly what a fresh
// stream reports, with the worker goroutine cleanly retired and
// restarted.
func TestPipelineReset(t *testing.T) {
	corpus := pipelineCorpus()
	s := threadedStream(1)
	// Burn a first run through it, including Finish.
	feed(s, traceEvents(corpus["clean"]))
	s.Finish()
	for _, name := range []string{"racy", "dup-atomics", "corrupt-loads"} {
		tr := corpus[name]
		s.Reset(tr.AtomicDelta)
		if s.ring == nil {
			t.Fatalf("reset/%s dropped the ring", name)
		}
		evs := traceEvents(tr)
		feed(s, evs)
		fresh := NewStream(tr.AtomicDelta)
		feed(fresh, evs)
		diffViolations(t, "reset/"+name, s.Finish(), fresh.Finish())
	}
}

// TestStreamSnapshotRestore pins the checkpoint contract: fold a
// prefix, snapshot, fold the suffix twice — once live, once after
// Restore — and require identical violations. The cut point is swept
// across the trace so it lands inside live episodes, between
// retirement and reuse, and amid pending (out-of-order) atomics.
func TestStreamSnapshotRestore(t *testing.T) {
	for name, tr := range pipelineCorpus() {
		evs := traceEvents(tr)
		for _, frac := range []float64{0.1, 0.5, 0.9} {
			cut := int(float64(len(evs)) * frac)
			p := NewStream(tr.AtomicDelta)
			feed(p, evs[:cut])
			snap := p.Snapshot()
			feed(p, evs[cut:])
			want := p.Finish()

			p.Restore(snap)
			feed(p, evs[cut:])
			diffViolations(t, name, p.Finish(), want)

			// The same snapshot reinstated on a brand-new stream must
			// behave identically: the cut is self-contained.
			q := NewStream(1)
			q.Restore(snap)
			feed(q, evs[cut:])
			diffViolations(t, name+"/fresh", q.Finish(), want)
		}
	}
}

// TestPipelineSnapshotThreaded pins the cut rule: the first Snapshot
// or Restore on a threaded stream drains the ring and retires the
// worker, and the stream folds on the caller from then on, across
// Reset too — with the violations of an uncut threaded stream and of
// the reference checker.
func TestPipelineSnapshotThreaded(t *testing.T) {
	tr := pipelineCorpus()["racy"]
	evs := traceEvents(tr)
	cut := len(evs) / 2
	want := VerifyPostHoc(tr)

	uncut := threadedStream(tr.AtomicDelta)
	feed(uncut, evs)
	diffViolations(t, "uncut", uncut.Finish(), want)

	base := runtime.NumGoroutine()
	s := threadedStream(tr.AtomicDelta)
	feed(s, evs[:cut])
	if !s.ring.running {
		t.Fatal("no worker was folding before the cut")
	}
	snap := s.Snapshot()
	if s.ring != nil {
		t.Fatal("the cut kept the ring")
	}
	settle(t, base)
	feed(s, evs[cut:])
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after folding past the cut, want %d", n, base)
	}
	diffViolations(t, "cut", s.Finish(), want)
	if s.Reset(tr.AtomicDelta); s.ring != nil {
		t.Fatal("Reset gave a cut stream its ring back")
	}

	// A restore is a cut too, on a stream whose worker is running.
	r := threadedStream(tr.AtomicDelta)
	feed(r, evs[:cut/2])
	r.Restore(snap)
	if r.ring != nil {
		t.Fatal("the restore kept the ring")
	}
	settle(t, base)
	feed(r, evs[cut:])
	diffViolations(t, "restored", r.Finish(), want)
}
