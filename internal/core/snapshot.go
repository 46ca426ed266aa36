package core

import (
	"fmt"
	"slices"

	"drftest/internal/checker"
	"drftest/internal/mem"
	"drftest/internal/rng"
	"drftest/internal/table"
	"drftest/internal/trace"
	"drftest/internal/viper"
)

// This file implements the tester half of the checkpoint/fork design:
//
//   - Fork rearms the tester for a new seed by restoring its systems
//     from a warm snapshot instead of resetting them — the campaign
//     fork path.
//   - Snapshot/Restore deep-capture the tester's own run state so a
//     checkpointed replay (cmd/replay -bisect) can rewind a run to an
//     earlier tick and re-execute it bit-identically.
//
// Restore reinstates state into the SAME object graph: pre-bound
// closures (wavefront issueFn, heartbeatFn, sequencer deliverFn) keep
// working because the objects they captured are retained and only
// their contents change. Pointers into the variable slab stay valid
// for the same reason. Live episodes are the exception — nothing
// pre-binds them (issue/retire reach them via thr.ep), so Restore
// retires the current ones to the free list and refills recycled
// structs from it.
//
// Every save below refills the storage of the snapshot it is handed
// (SnapshotInto), and saving and restoring a variable or an episode is
// the same copy in opposite directions, so a recycled cut allocates
// only for state that outgrew what it held last time.

// spaceSave captures the address space: every slab variable (claims,
// reference values, atomic bookkeeping), the claim counters and the
// random address mapping.
type spaceSave struct {
	slab            []variable
	addrs           []mem.Addr
	lastWriters     []AccessRecord
	free, unwritten int
	falseShared     int
}

// threadSave captures one lane; ep is meaningful only while live.
// Variable pointers inside it are retained by identity — they index
// the retained slab.
type threadSave struct {
	ep           episode
	live         bool
	episodesDone int
	curOp        genOp
}

type wfSave struct {
	outstanding int
	finished    bool
}

// TesterSnapshot captures a tester's complete mid-run state; obtain
// via Snapshot, reinstate via Restore.
type TesterSnapshot struct {
	cfg     Config
	rnd     rng.PCG
	space   spaceSave
	threads []threadSave
	wfs     []wfSave
	log     *trace.LogSnapshot[LogEntry]

	failures     []*Failure
	lastWorkTick uint64
	genSeq       uint64

	traceOps []checker.Op
	epMeta   []checker.EpisodeMeta
	stream   *checker.StreamSnapshot

	nextReqID     uint64
	nextEpisodeID uint64
	storeValue    uint32
	finishedWFs   int
	done          bool

	// reqSlab is the slice header only: slab slots are write-once
	// within a run, and a restored replay re-issues the identical
	// requests into the identical slots.
	reqSlab []mem.Request

	opsIssued, opsCompleted, episodesRetired uint64
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
	s.cfg, s.rnd = t.cfg, *t.rnd
	s.space.slab = slices.Grow(s.space.slab[:0], len(t.space.slab))[:len(t.space.slab)]
	for i := range t.space.slab {
		copyVar(&s.space.slab[i], &t.space.slab[i])
	}
	s.space.addrs = append(s.space.addrs[:0], t.space.addrs...)
	s.space.lastWriters = append(s.space.lastWriters[:0], t.space.lastWriters...)
	s.space.free, s.space.unwritten, s.space.falseShared = t.space.free, t.space.unwritten, t.space.falseShared
	s.threads = slices.Grow(s.threads[:0], len(t.threads))[:len(t.threads)]
	for i, thr := range t.threads {
		ts := &s.threads[i]
		ts.episodesDone, ts.curOp = thr.episodesDone, thr.curOp
		if ts.live = thr.ep != nil; ts.live {
			copyEpisode(&ts.ep, thr.ep)
		}
	}
	s.wfs = s.wfs[:0]
	for _, wf := range t.wfs {
		s.wfs = append(s.wfs, wfSave{outstanding: wf.outstanding, finished: wf.finished})
	}
	s.log = t.log.SnapshotInto(s.log)
	s.failures = append(s.failures[:0], t.failures...)
	s.lastWorkTick = t.lastWorkTick
	s.genSeq = t.genSeq
	s.traceOps = s.traceOps[:0]
	if t.trace != nil {
		s.traceOps = append(s.traceOps, t.trace.Ops...)
	}
	s.epMeta = append(s.epMeta[:0], t.epMeta...)
	if t.stream != nil {
		s.stream = t.stream.SnapshotInto(s.stream)
	} else {
		s.stream = nil
	}
	s.nextReqID = t.nextReqID
	s.nextEpisodeID = t.nextEpisodeID
	s.storeValue = t.storeValue
	s.finishedWFs = t.finishedWFs
	s.done = t.done
	s.reqSlab = t.reqSlab
	s.opsIssued = t.opsIssued
	s.opsCompleted = t.opsCompleted
	s.episodesRetired = t.episodesRetired
	return s
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
	t.cfg = s.cfg
	*t.rnd = s.rnd
	for i := range s.space.slab {
		copyVar(&t.space.slab[i], &s.space.slab[i])
	}
	t.space.addrs = append(t.space.addrs[:0], s.space.addrs...)
	t.space.lastWriters = append(t.space.lastWriters[:0], s.space.lastWriters...)
	t.space.free, t.space.unwritten, t.space.falseShared = s.space.free, s.space.unwritten, s.space.falseShared
	// Abandoned episodes go to the free list first, so the restored
	// ones below are refills of them rather than fresh structs. The
	// free list itself is not part of a cut: its episodes are
	// interchangeable and fully reinitialized on reuse.
	for _, thr := range t.threads {
		if thr.ep != nil {
			t.epFree = append(t.epFree, thr.ep)
			thr.ep = nil
		}
	}
	for i := range s.threads {
		ts, thr := &s.threads[i], t.threads[i]
		thr.episodesDone = ts.episodesDone
		thr.curOp = ts.curOp
		if ts.live {
			thr.ep = t.freeEpisode()
			copyEpisode(thr.ep, &ts.ep)
		}
	}
	for i, ws := range s.wfs {
		t.wfs[i].outstanding = ws.outstanding
		t.wfs[i].finished = ws.finished
	}
	t.log.Restore(s.log) // panics on a log-capacity mismatch
	t.failures = append(t.failures[:0], s.failures...)
	t.lastWorkTick = s.lastWorkTick
	t.genSeq = s.genSeq
	if t.trace != nil {
		t.trace.Ops = append(t.trace.Ops[:0], s.traceOps...)
		t.epMeta = append(t.epMeta[:0], s.epMeta...)
	}
	if t.stream != nil {
		t.stream.Restore(s.stream)
	}
	t.nextReqID = s.nextReqID
	t.nextEpisodeID = s.nextEpisodeID
	t.storeValue = s.storeValue
	t.finishedWFs = s.finishedWFs
	t.done = s.done
	t.reqSlab = s.reqSlab
	t.opsIssued = s.opsIssued
	t.opsCompleted = s.opsCompleted
	t.episodesRetired = s.episodesRetired
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
