package checker

import (
	"sort"
	"testing"
)

// traceEvents flattens a trace into the begin/op/retire fold order
// Verify uses, so the same sequence can be replayed through a Stream,
// an inline Pipeline, or a threaded Pipeline and the outputs compared.
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

func feed(p *Pipeline, evs []streamEvent) {
	for _, e := range evs {
		switch e.kind {
		case evOp:
			p.Observe(e.op)
		case evBegin:
			p.BeginEpisode(e.id, e.seq)
		case evRetire:
			p.RetireEpisode(e.id, e.seq)
		}
	}
}

// pipelineCorpus: traces long enough to wrap the event ring several
// times (ops ≫ pipelineRingSize exercises backpressure), covering a
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

// TestPipelineMatchesInline pins the pipeline's whole contract: the
// threaded ring and inline folding produce identical violations, in
// content and order, on clean and buggy traces — including traces
// several times the ring capacity, where the producer had to spin on
// backpressure. Run under -race this also vets the SPSC handoff.
func TestPipelineMatchesInline(t *testing.T) {
	for name, tr := range pipelineCorpus() {
		evs := traceEvents(tr)
		if len(evs) <= pipelineRingSize {
			t.Fatalf("%s: trace too small (%d events) to wrap the %d-slot ring", name, len(evs), pipelineRingSize)
		}
		inline := newPipeline(tr.AtomicDelta, true)
		feed(inline, evs)
		want := inline.Finish()

		threaded := newPipeline(tr.AtomicDelta, false)
		feed(threaded, evs)
		got := threaded.Finish()
		diffViolations(t, name, got, want)

		// And both match the reference checker on the same trace.
		diffViolations(t, name+"/post-hoc", got, VerifyPostHoc(tr))
	}
}

// TestPipelineFlushQuiesces checks Flush's contract: after it
// returns, every published event is visible in the stream state.
func TestPipelineFlushQuiesces(t *testing.T) {
	p := newPipeline(1, false)
	p.BeginEpisode(1, 1)
	for i := 0; i < 3*pipelineRingSize; i++ {
		p.Observe(Op{Kind: OpStore, Var: 0, Value: uint32(i), Episode: 1, Seq: i})
	}
	p.Flush()
	if v, ok := p.stream.epState(1).own(0); !ok || v != uint32(3*pipelineRingSize-1) {
		t.Fatalf("after Flush the last store is not folded: got %d (ok=%v)", v, ok)
	}
	p.Finish()
}

// TestPipelinePublishBatch pins the batched hand-off: events short of a
// batch boundary stay private to the producer, the boundary publishes
// them, and Flush, Finish and Reset each account for an unpublished
// remainder — Flush folds it, Finish reports it, Reset drops nothing
// into the next run.
func TestPipelinePublishBatch(t *testing.T) {
	p := newPipeline(1, false)
	store := func(i int) { p.Observe(Op{Kind: OpStore, Var: 0, Value: uint32(i), Episode: 1, Seq: i}) }
	folded := func(at string, want int) {
		t.Helper()
		if wr, tail, head := p.wr, p.tail.Load(), p.head.Load(); wr != tail || tail != head {
			t.Fatalf("%s: wr %d, tail %d, head %d are not one index", at, wr, tail, head)
		}
		if v, ok := p.stream.epState(1).own(0); !ok || v != uint32(want) {
			t.Fatalf("%s: last folded store is %d (ok=%v), want %d", at, v, ok, want)
		}
	}
	p.BeginEpisode(1, 1)
	for i := 1; i < publishBatch-1; i++ {
		store(i)
	}
	if tail := p.tail.Load(); tail != 0 || p.wr != publishBatch-1 {
		t.Fatalf("short of the boundary: tail %d, wr %d, want 0 and %d", tail, p.wr, publishBatch-1)
	}
	p.Flush()
	folded("Flush of a part batch", publishBatch-2)

	store(publishBatch - 1) // the boundary publishes without a Flush
	if tail := p.tail.Load(); tail != publishBatch {
		t.Fatalf("at the boundary: tail %d, want %d", tail, publishBatch)
	}
	store(publishBatch)
	p.Restore(p.Snapshot())
	folded("Snapshot of a part batch", publishBatch)

	store(publishBatch + 1)
	p.Finish()
	folded("Finish of a part batch", publishBatch+1)

	p.Reset(1)
	if p.wr != 0 || p.tail.Load() != 0 || p.head.Load() != 0 {
		t.Fatalf("Reset left wr %d, tail %d, head %d", p.wr, p.tail.Load(), p.head.Load())
	}
	p.BeginEpisode(1, 1)
	store(7)
	p.Flush()
	folded("first event after Reset", 7)
	p.Finish()
}

// TestPipelineReset pins run-to-run reuse: a pipeline reset between
// traces reports exactly what a fresh pipeline reports, with the
// worker goroutine cleanly retired and restarted.
func TestPipelineReset(t *testing.T) {
	corpus := pipelineCorpus()
	p := newPipeline(1, false)
	// Burn a first run through it, including Finish.
	feed(p, traceEvents(corpus["clean"]))
	p.Finish()
	for _, name := range []string{"racy", "dup-atomics", "corrupt-loads"} {
		tr := corpus[name]
		p.Reset(tr.AtomicDelta)
		evs := traceEvents(tr)
		feed(p, evs)
		fresh := newPipeline(tr.AtomicDelta, true)
		feed(fresh, evs)
		diffViolations(t, "reset/"+name, p.Finish(), fresh.Finish())
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
			p := newPipeline(tr.AtomicDelta, true)
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
			for _, e := range evs[cut:] {
				switch e.kind {
				case evOp:
					q.Observe(e.op)
				case evBegin:
					q.BeginEpisode(e.id, e.seq)
				case evRetire:
					q.RetireEpisode(e.id, e.seq)
				}
			}
			diffViolations(t, name+"/fresh", q.Finish(), want)
		}
	}
}

// TestPipelineSnapshotThreaded checks that Pipeline.Snapshot flushes
// in-flight ring events before cutting, and that a threaded pipeline
// restores and resumes correctly (worker restarted after a Finish).
func TestPipelineSnapshotThreaded(t *testing.T) {
	tr := pipelineCorpus()["racy"]
	evs := traceEvents(tr)
	cut := len(evs) / 2

	p := newPipeline(tr.AtomicDelta, false)
	feed(p, evs[:cut])
	snap := p.Snapshot()
	feed(p, evs[cut:])
	want := p.Finish()

	// Finish retired the worker; Restore + feed must revive it.
	p.Restore(snap)
	feed(p, evs[cut:])
	diffViolations(t, "threaded", p.Finish(), want)
}
