package checker

import (
	"testing"

	"drftest/internal/rng"
)

// BenchmarkChecker compares the two verification modes on the same
// tester-shaped trace: the streaming replay (Verify) against the
// map-building reference (VerifyPostHoc), plus the pure online fold
// (Stream fed episode by episode, the tester-wiring hot path) on one
// variable and at the tester's live window.
func BenchmarkChecker(b *testing.B) {
	cfg := genCfg{threads: 8, episodes: 200, opsPerEp: 8,
		dataVars: 8, syncVars: 4, private: true, delta: 1}
	tr := genTrace(42, cfg)
	opsPerRun := len(tr.Ops)

	b.Run("StreamVerify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if vs := Verify(tr); vs != nil {
				b.Fatalf("clean trace flagged: %v", vs)
			}
		}
		b.ReportMetric(float64(opsPerRun), "ops/run")
	})
	b.Run("PostHoc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if vs := VerifyPostHoc(tr); vs != nil {
				b.Fatalf("clean trace flagged: %v", vs)
			}
		}
		b.ReportMetric(float64(opsPerRun), "ops/run")
	})
	b.Run("OnlineFold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewStream(1)
			var gseq, id uint64
			var atomic uint32
			for ep := 0; ep < 1000; ep++ {
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
			if vs := s.Finish(); vs != nil {
				b.Fatalf("clean fold flagged: %v", vs)
			}
		}
	})
	b.Run("LiveWindow", func(b *testing.B) {
		evs := liveWindowEvents(64, 8192, 200, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := NewStream(1)
			feed(s, evs)
			if vs := s.Finish(); vs != nil {
				b.Fatalf("clean fold flagged: %v", vs)
			}
		}
		b.ReportMetric(float64(len(evs)), "events/run")
	})
}

// liveWindowEvents is a clean fold at the tester's window: live
// episodes run at once, each of opsPerEp loads and stores, until total
// episodes have retired. Each live episode owns a slot of vars/live
// variables, as the tester's claims make an episode's writes exclusive;
// an op of a live episode drawn at random completes next, so episodes
// retire out of creation order and a variable's unsealed suffix and
// writers, and an episode's touched and own-write lists, spill.
func liveWindowEvents(live, vars, opsPerEp, total int) []streamEvent {
	r := rng.New(7, 1)
	perSlot := vars / live
	retired := make([]uint32, vars) // each variable's last retired value
	type episode struct {
		id  uint64
		ops int
		own map[int]uint32
	}
	slots := make([]episode, live)
	var evs []streamEvent
	var gseq, id uint64
	begin := func(e *episode) {
		id++
		gseq++
		*e = episode{id: id, own: map[int]uint32{}}
		evs = append(evs, streamEvent{kind: evBegin, id: id, seq: gseq})
	}
	for i := range slots {
		begin(&slots[i])
	}
	for done := 0; done < total; {
		slot := r.Intn(live)
		e := &slots[slot]
		v := slot*perSlot + r.Intn(perSlot)
		op := Op{Kind: OpLoad, Var: v, Episode: e.id, Seq: e.ops}
		if r.Intn(2) == 0 {
			op.Kind, op.Value = OpStore, uint32(r.Intn(1<<16))
			e.own[v] = op.Value
		} else if val, ok := e.own[v]; ok {
			op.Value = val
		} else {
			op.Value = retired[v]
		}
		evs = append(evs, streamEvent{kind: evOp, op: op})
		if e.ops++; e.ops == opsPerEp {
			gseq++
			evs = append(evs, streamEvent{kind: evRetire, id: e.id, seq: gseq})
			for v, val := range e.own {
				retired[v] = val
			}
			done++
			begin(e)
		}
	}
	return evs
}
