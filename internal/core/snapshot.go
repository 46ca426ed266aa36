package core

import (
	"fmt"
	"slices"

	"drftest/internal/checker"
	"drftest/internal/table"
	"drftest/internal/trace"
	"drftest/internal/viper"
)

// This file implements the tester half of the checkpoint/fork design:
// Fork rearms the tester for a new seed by restoring its systems from a
// warm snapshot (the campaign fork path), and Snapshot/Restore capture
// the tester's own run state so a checkpointed replay (cmd/replay
// -bisect) can rewind a run and re-execute it bit-identically. That
// state is declared once, in the state structs the tester and its parts
// embed; a snapshot holds the same structs, and each one's copyFrom is
// both save and restore, refilling the destination's storage. Restore
// writes into the SAME object graph, so pre-bound closures (wavefront
// issueFn, heartbeatFn, sequencer deliverFn) and pointers into the
// variable slab stay valid.

// TesterSnapshot captures a tester's complete mid-run state; obtain
// via Snapshot, reinstate via Restore.
type TesterSnapshot struct {
	testerState
	space   spaceState
	threads []threadState
	wfs     []wfState

	log      *trace.LogSnapshot[LogEntry]
	traceOps []checker.Op
	stream   *checker.StreamSnapshot
}

// OpsCompleted returns the number of operations completed so far — the
// monotone progress counter replay bisection searches for deadlocks.
func (t *Tester) OpsCompleted() uint64 { return t.opsCompleted }

// Report summarizes the run so far: the stepped-execution companion of
// Run, for callers that drive the kernel in slices (Start +
// Kernel.Run + Finish + Report, as checkpointed replay does).
func (t *Tester) Report() *Report { return t.report() }

// FailureCount returns the number of failures detected so far.
func (t *Tester) FailureCount() int { return len(t.failures) }

// Violated reports whether the run so far has failed or, with
// StreamCheck on, the online checker finds a violation: Report's
// verdict without building the Report. Like Report it finishes the
// stream.
func (t *Tester) Violated() bool {
	return len(t.failures) > 0 || t.stream != nil && len(t.stream.Finish()) > 0
}

// copyVar copies src into dst, refilling dst's own old-value table
// rather than sharing src's.
func copyVar(dst, src *variable) {
	seenOld := dst.seenOld
	*dst = *src
	if src.seenOld != nil {
		if seenOld == nil {
			seenOld = new(table.Table[uint32, AccessRecord])
		}
		seenOld.CopyFrom(src.seenOld)
		dst.seenOld = seenOld
	}
}

// copyEpisode copies src into dst, refilling dst's table and slices.
func copyEpisode(dst, src *episode) {
	ops, order, claims := dst.ops, dst.claimOrder, dst.claims
	*dst = *src
	dst.ops = append(ops[:0], src.ops...)
	dst.claimOrder = append(order[:0], src.claimOrder...)
	claims.CopyFrom(&src.claims)
	dst.claims = claims
}

// Snapshot captures the tester's complete state. Pair with kernel and
// system snapshots taken at the same instant for a consistent cut.
func (t *Tester) Snapshot() *TesterSnapshot { return t.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling s, a snapshot of this tester the
// caller knows is dead (nil allocates).
func (t *Tester) SnapshotInto(s *TesterSnapshot) *TesterSnapshot {
	if s == nil {
		s = &TesterSnapshot{}
	}
	s.testerState.copyFrom(&t.testerState)
	s.space.copyFrom(&t.space.spaceState)
	s.threads = slices.Grow(s.threads[:0], len(t.threads))[:len(t.threads)]
	s.presize(t.threads)
	for i, thr := range t.threads {
		s.threads[i].copyFrom(&thr.threadState)
	}
	s.wfs = s.wfs[:0]
	for _, wf := range t.wfs {
		s.wfs = append(s.wfs, wf.wfState)
	}
	s.log = t.log.SnapshotInto(s.log)
	s.traceOps = s.traceOps[:0]
	if t.trace != nil {
		s.traceOps = append(s.traceOps, t.trace.Ops...)
	}
	if t.stream != nil {
		s.stream = t.stream.SnapshotInto(s.stream)
	} else {
		s.stream = nil
	}
	return s
}

// presize gives each snapshot thread whose episode slices are too
// short for its live source's the room they need, carved from one
// array per slice kind: a fresh snapshot allocates two arrays, not two
// per thread.
func (s *TesterSnapshot) presize(threads []*thread) {
	short := func(i int) (d, src *episode, ok bool) {
		d, src = &s.threads[i].ep, &threads[i].ep
		return d, src, threads[i].live && (cap(d.ops) < len(src.ops) || cap(d.claimOrder) < len(src.claimOrder))
	}
	nops, norder := 0, 0
	for i := range threads {
		if _, src, ok := short(i); ok {
			nops += len(src.ops)
			norder += len(src.claimOrder)
		}
	}
	if nops == 0 && norder == 0 {
		return
	}
	ops, order := make([]genOp, nops), make([]*variable, norder)
	for i := range threads {
		if d, src, ok := short(i); ok {
			d.ops, ops = ops[:0:len(src.ops)], ops[len(src.ops):]
			d.claimOrder, order = order[:0:len(src.claimOrder)], order[len(src.claimOrder):]
		}
	}
}

// Restore reinstates a state captured by Snapshot on this tester. The
// kernel and systems must be restored to the matching cut first, and
// the tester's shape (wavefronts, threads, log capacity) must equal
// the snapshot's — Restore rewinds a run, it does not rebuild one.
func (t *Tester) Restore(s *TesterSnapshot) {
	if len(t.threads) != len(s.threads) || len(t.wfs) != len(s.wfs) {
		panic("core: Restore with mismatched wavefront/thread shape")
	}
	if len(t.space.slab) != len(s.space.slab) {
		panic("core: Restore with mismatched address-space shape")
	}
	if (t.stream != nil) != (s.stream != nil) {
		panic("core: Restore with mismatched stream-checker shape")
	}
	t.copyFrom(&s.testerState)
	t.space.copyFrom(&s.space)
	t.space.rederive()
	for i, thr := range t.threads {
		thr.copyFrom(&s.threads[i])
	}
	for i, wf := range t.wfs {
		wf.wfState = s.wfs[i]
	}
	t.log.Restore(s.log) // panics on a log-capacity mismatch
	if t.trace != nil {
		t.trace.Ops = append(t.trace.Ops[:0], s.traceOps...)
	}
	if t.stream != nil {
		t.stream.Restore(s.stream)
	}
}

// Fork rearms the tester and its systems for a fresh run from seed by
// restoring the systems from a warm snapshot instead of resetting
// them: a snapshot armed over a quiescent system makes each per-seed
// restore an undo of the state touched since the snapshot, where
// System.Reset clears what the run left valid. snaps must hold one
// snapshot per system, taken at a clean (just-built or just-reset)
// quiescent point of the SAME configuration. After Fork the subsequent
// Run is bit-identical to one on a freshly built tester with this
// seed — the same contract as Reset, pinned by the same tests.
func (t *Tester) Fork(seed uint64, snaps []*viper.SystemSnapshot) {
	if len(snaps) != len(t.systems) {
		panic(fmt.Sprintf("core: Fork with %d snapshots for %d systems", len(snaps), len(t.systems)))
	}
	t.k.Reset()
	for i, sys := range t.systems {
		sys.Restore(snaps[i])
	}
	t.Reset(seed)
}
