package checker

import (
	"fmt"
	"slices"
	"sort"

	"drftest/internal/table"
)

// Stream is the online form of the axiomatic checker: instead of
// materializing a whole trace and building per-axiom maps over it
// (VerifyPostHoc), it folds every completed operation and every
// episode retirement into fixed per-variable state the moment they
// happen. Memory stays bounded by the number of variables plus the
// number of concurrently live episodes — independent of run length —
// while the violations reported by Finish are identical, in content
// and order, to the post-hoc checker's on any trace the tester can
// produce.
//
// The folding relies on two facts the tester guarantees by
// construction (see DESIGN.md): operations are observed in global
// completion order, and an episode is retired only after all of its
// operations have been observed. Under those rules:
//
//   - A1 needs only, per sync variable, a counter of the contiguous
//     prefix {0, k, 2k, …} consumed so far plus a multiset of
//     out-of-order arrivals; the multiset drains back to empty
//     whenever the history is serializable.
//   - A2 needs only the unsealed suffix of each data variable's
//     lifetime intervals: once every live episode was created after
//     an interval's start, nothing can ever sort before it, so it is
//     checked against its neighbor and dropped.
//   - A3 needs only each live episode's own writes and, per
//     variable, the retired-writer values still reachable by some
//     live or future reader; older writers are superseded and pruned.
//
// A stream built by NewStream folds on the caller. One built by
// NewOnlineStream may instead fold on its own goroutine, fed through a
// ring (ring.go), until its first cut. The public methods publish or
// fold; either way the violations are the same.
type Stream struct {
	delta uint32

	// ring feeds the worker goroutine; nil when the stream folds on
	// the caller.
	ring *ring

	eps     table.Table[uint64, *epState]
	epFree  []*epState
	epChunk []epState // the uncarved tail of newEpState's chunk; scratch
	// spill recycles the arrays the folds' lists outgrow their inline
	// buffers into; it is scratch, never part of a cut.
	spill spills
	// liveQ lists live episodes in creation order; liveHead is the
	// first possibly-live entry, so the minimum live CreateSeq is
	// found by popping dead heads.
	liveQ    []*epState
	liveHead int

	// atomics[v] is sync variable v's A1 fold and vars[v/varChunk]
	// [v%varChunk] data variable v's A2/A3 fold: variable ids are dense,
	// so a fold is found by index and a cut is copied into place. Only
	// the first len(atomics) and nvars ids are in use; a fold past them
	// may be stale and is emptied when the range grows over it, and an
	// empty fold checks and reports nothing. vars' chunks are allocated
	// on first touch of their ids and kept, so a reused stream allocates
	// per run only the spill arrays of its peak.
	atomics []atomicState
	vars    [][]varState
	nvars   int

	// Violation buckets, assembled in reference order by Finish: A1
	// (per sync var ascending), A2 unknown-episode (op order), A2
	// overlaps (sorted by variable then interval start), A3 (op
	// order).
	a2unknown []Violation
	a2overlap []overlapViol
	a3        []Violation

	finished bool
	result   []Violation
}

// NewStream creates an empty checker that folds on the caller.
// atomicDelta is the constant every fetch-add adds (0 means 1,
// matching the trace default).
func NewStream(atomicDelta uint32) *Stream {
	if atomicDelta == 0 {
		atomicDelta = 1
	}
	return &Stream{delta: atomicDelta}
}

// ownWrite is one episode's latest stored value for a variable.
type ownWrite struct {
	v   int
	val uint32
}

// epState is the per-live-episode fold: identity, creation order, the
// episode's own writes (for A3 own-read resolution and for the
// retired-writer record), and the variables it holds A2 intervals on.
// Its lists start in the inline buffers beside them; a longer episode's
// spill into pooled arrays, given back when the episode is recycled.
type epState struct {
	id        uint64
	createSeq uint64
	known     bool // BeginEpisode seen; ops may reference unknown IDs
	dead      bool
	ownWrites []ownWrite
	touched   []int

	ownBuf     [8]ownWrite
	touchedBuf [8]int
}

func (e *epState) own(v int) (uint32, bool) {
	for i := len(e.ownWrites) - 1; i >= 0; i-- {
		if e.ownWrites[i].v == v {
			return e.ownWrites[i].val, true
		}
	}
	return 0, false
}

func (e *epState) setOwn(p *spillPool[ownWrite], v int, val uint32) {
	for i := range e.ownWrites {
		if e.ownWrites[i].v == v {
			e.ownWrites[i].val = val
			return
		}
	}
	p.push(&e.ownWrites, e.ownBuf[:0], ownWrite{v, val})
}

// ival is one episode's [create, retire] lifetime on one variable,
// with its access role. hi is set at retirement; unretired episodes
// get an unbounded lifetime at Finish, like the post-hoc checker.
type ival struct {
	ep      uint64
	lo, hi  uint64
	writes  bool
	retired bool
}

// writerRec is a retired writer's final value for a variable.
type writerRec struct {
	retireSeq uint64
	val       uint32
}

// varState is the per-data-variable fold for A2 and A3. Its lists
// start in the inline buffers beside them: most variables never hold
// more than four unsealed intervals or four reachable writers (a
// variable keeps three or more while a writer retired since the oldest
// live episode began), and one that does spills into a pooled array
// until it shrinks back.
type varState struct {
	// intervals is the unsealed suffix, sorted by lo.
	intervals []ival
	// prev is the most recently sealed interval, the left neighbor of
	// the next interval to seal.
	prev    ival
	hasPrev bool
	// writers holds retired-writer values in retirement order, pruned
	// to those still reachable by a live or future reader.
	writers []writerRec

	ivalBuf   [4]ival
	writerBuf [4]writerRec
}

// varChunk is the slab's growth step, in records (≈ 70 KB).
const varChunk = 256

// atomicState is the per-sync-variable fold for A1: values
// {0..contig-1}*delta have been consumed into the contiguous prefix;
// everything else waits in pending until the prefix reaches it.
type atomicState struct {
	contig  int
	pending table.Table[uint32, int]
	npend   int
}

// overlapViol is an A2 overlap with its reference-order sort key.
type overlapViol struct {
	v    int
	lo   uint64
	viol Violation
}

// BeginEpisode registers a created episode. Calls must arrive in
// increasing createSeq order (the tester's creations do).
func (s *Stream) BeginEpisode(id, createSeq uint64) {
	if s.ring != nil {
		s.push(streamEvent{kind: evBegin, id: id, seq: createSeq})
		return
	}
	s.beginEpisode(id, createSeq)
}

// Observe folds one completed operation. Operations must arrive in
// global completion order.
func (s *Stream) Observe(op Op) {
	if s.ring != nil {
		s.push(streamEvent{kind: evOp, op: op})
		return
	}
	s.observe(op)
}

// RetireEpisode folds an episode's retirement. Calls must arrive in
// increasing retireSeq order, after all of the episode's operations.
func (s *Stream) RetireEpisode(id, retireSeq uint64) {
	if s.ring != nil {
		s.push(streamEvent{kind: evRetire, id: id, seq: retireSeq})
		return
	}
	s.retireEpisode(id, retireSeq)
}

func (s *Stream) beginEpisode(id, createSeq uint64) {
	es := s.newEpState()
	es.id, es.createSeq, es.known = id, createSeq, true
	s.eps.Put(id, es)
	if s.liveHead == len(s.liveQ) {
		s.liveQ, s.liveHead = s.liveQ[:0], 0
	}
	s.liveQ = append(s.liveQ, es)
}

func (s *Stream) newEpState() *epState {
	if n := len(s.epFree); n > 0 {
		es := s.epFree[n-1]
		s.epFree = s.epFree[:n-1]
		// recycle emptied its lists.
		es.id, es.createSeq, es.known, es.dead = 0, 0, false, false
		return es
	}
	if len(s.epChunk) == 0 {
		s.epChunk = make([]epState, epChunk)
	}
	es := &s.epChunk[0]
	s.epChunk = s.epChunk[1:]
	return es
}

// epChunk is how many episode records a stream carves from one chunk.
const epChunk = 16

// recycle frees es, giving its spill arrays back. Its lists' contents
// stay intact until es or a spill array is taken again.
func (s *Stream) recycle(es *epState) {
	s.spill.touched.shrink(&es.touched, es.touchedBuf[:0], 0)
	s.spill.ownWrites.shrink(&es.ownWrites, es.ownBuf[:0], 0)
	s.epFree = append(s.epFree, es)
}

// epState returns the state for id, creating an unknown-episode
// record on first reference so own-write tracking works even for
// dangling IDs (matching the post-hoc checker).
func (s *Stream) epState(id uint64) *epState {
	es := s.eps.Slot(id)
	if *es == nil {
		*es = s.newEpState()
		(*es).id = id
	}
	return *es
}

// minLiveCreate pops dead episodes off the queue head (recycling
// them) and returns the minimum CreateSeq over live episodes, or
// ^uint64(0) when none are live.
func (s *Stream) minLiveCreate() uint64 {
	for s.liveHead < len(s.liveQ) && s.liveQ[s.liveHead].dead {
		s.recycle(s.liveQ[s.liveHead])
		s.liveQ[s.liveHead] = nil
		s.liveHead++
	}
	if s.liveHead == len(s.liveQ) {
		s.liveQ, s.liveHead = s.liveQ[:0], 0
		return ^uint64(0)
	}
	if s.liveHead > 64 && s.liveHead*2 >= len(s.liveQ) {
		n := copy(s.liveQ, s.liveQ[s.liveHead:])
		s.liveQ, s.liveHead = s.liveQ[:n], 0
	}
	return s.liveQ[s.liveHead].createSeq
}

// varState returns data variable v's fold, bringing v into the range
// in use.
func (s *Stream) varState(v int) *varState {
	vs := s.rec(v)
	if v >= s.nvars {
		for i := s.nvars; i < v; i++ {
			if f := s.fold(i); f != nil {
				s.empty(f)
			}
		}
		s.empty(vs)
		s.nvars = v + 1
	}
	return vs
}

// rec returns data variable v's record, allocating its chunk on first
// touch.
func (s *Stream) rec(v int) *varState {
	c := v / varChunk
	for len(s.vars) <= c {
		s.vars = append(s.vars, nil)
	}
	if s.vars[c] == nil {
		s.vars[c] = make([]varState, varChunk)
	}
	return &s.vars[c][v%varChunk]
}

// fold returns data variable v's record, nil when its chunk was never
// allocated (every fold in it is empty).
func (s *Stream) fold(v int) *varState {
	if c := v / varChunk; c < len(s.vars) && s.vars[c] != nil {
		return &s.vars[c][v%varChunk]
	}
	return nil
}

// empty clears the fold, giving its spill arrays back.
func (s *Stream) empty(v *varState) {
	s.spill.intervals.shrink(&v.intervals, v.ivalBuf[:0], 0)
	s.spill.writers.shrink(&v.writers, v.writerBuf[:0], 0)
	v.prev, v.hasPrev = ival{}, false
}

// isEmpty reports whether the fold holds nothing.
func (v *varState) isEmpty() bool {
	return len(v.intervals) == 0 && len(v.writers) == 0 && !v.hasPrev
}

// atomicState returns sync variable v's fold, bringing v into the range
// in use.
func (s *Stream) atomicState(v int) *atomicState {
	if n := len(s.atomics); v >= n {
		s.atomics = slices.Grow(s.atomics, v+1-n)[:v+1]
		for i := n; i <= v; i++ {
			s.atomics[i].empty()
		}
	}
	return &s.atomics[v]
}

// empty clears the fold, keeping its table's storage.
func (a *atomicState) empty() {
	a.contig, a.npend = 0, 0
	a.pending.Clear()
}

func (s *Stream) observe(op Op) {
	if op.Kind == OpAtomic {
		s.observeAtomic(op)
		if op.Sync {
			return
		}
	}
	es := s.epState(op.Episode)
	if !op.Sync {
		s.observeInterval(es, op)
	}
	s.observeValue(es, op)
}

// observeAtomic: axiom A1 fold.
func (s *Stream) observeAtomic(op Op) {
	a := s.atomicState(op.Var)
	if op.Value == uint32(a.contig)*s.delta {
		a.contig++
		for a.npend > 0 {
			next := uint32(a.contig) * s.delta
			n := a.pending.Ptr(next)
			if n == nil {
				break
			}
			if *n--; *n == 0 {
				a.pending.Delete(next)
			}
			a.npend--
			a.contig++
		}
		return
	}
	*a.pending.Slot(op.Value)++
	a.npend++
}

// observeInterval: axiom A2 fold — create or upgrade the episode's
// lifetime interval on the variable.
func (s *Stream) observeInterval(es *epState, op Op) {
	if !es.known {
		s.a2unknown = append(s.a2unknown,
			Violation{"A2-exclusivity", fmt.Sprintf("op references unknown episode %d", op.Episode)})
		return
	}
	v := s.varState(op.Var)
	// A live episode's interval is never sealed, so a backward scan of
	// the unsealed suffix always finds it; the suffix is small (live
	// window), so this is cheap.
	for i := len(v.intervals) - 1; i >= 0; i-- {
		if v.intervals[i].ep == op.Episode {
			if op.Kind == OpStore {
				v.intervals[i].writes = true
			}
			return
		}
	}
	s.spill.intervals.push(&v.intervals, v.ivalBuf[:0], ival{ep: op.Episode, lo: es.createSeq, writes: op.Kind == OpStore})
	// First accesses arrive nearly sorted by creation; restore order
	// from the back.
	for i := len(v.intervals) - 1; i > 0 && v.intervals[i].lo < v.intervals[i-1].lo; i-- {
		v.intervals[i], v.intervals[i-1] = v.intervals[i-1], v.intervals[i]
	}
	s.spill.touched.push(&es.touched, es.touchedBuf[:0], op.Var)
}

// observeValue: axiom A3 fold and check.
func (s *Stream) observeValue(es *epState, op Op) {
	switch op.Kind {
	case OpStore:
		es.setOwn(&s.spill.ownWrites, op.Var, op.Value)
	case OpLoad:
		if own, ok := es.own(op.Var); ok {
			if op.Value != own {
				s.a3 = append(s.a3, Violation{
					Axiom: "A3-read-own-write",
					Message: fmt.Sprintf("episode %d load of var %d returned %d, its own prior store wrote %d",
						op.Episode, op.Var, op.Value, own),
				})
			}
			return
		}
		if !es.known {
			return // already reported by A2
		}
		var want uint32 // zero-initialized memory
		if v := s.fold(op.Var); v != nil && op.Var < s.nvars {
			ws := v.writers
			i := sort.Search(len(ws), func(i int) bool { return ws[i].retireSeq >= es.createSeq })
			if i > 0 {
				want = ws[i-1].val
			}
		}
		if op.Value != want {
			s.a3 = append(s.a3, Violation{
				Axiom: "A3-read-retired-value",
				Message: fmt.Sprintf("episode %d (created@%d) load of var %d returned %d; last retired writer's value is %d",
					op.Episode, es.createSeq, op.Var, op.Value, want),
			})
		}
	}
}

// retireEpisode: an episode's intervals get their upper bound, its
// final writes become retired-writer values, and any interval now
// safely ordered before every live episode is sealed (checked against
// its neighbor and dropped).
func (s *Stream) retireEpisode(id, retireSeq uint64) {
	es, _ := s.eps.Get(id)
	if es == nil || !es.known || es.dead {
		return
	}
	es.dead = true
	s.eps.Delete(id)
	for _, varID := range es.touched {
		v := s.fold(varID)
		for i := len(v.intervals) - 1; i >= 0; i-- {
			if v.intervals[i].ep == id {
				v.intervals[i].hi = retireSeq
				v.intervals[i].retired = true
				break
			}
		}
	}
	for _, w := range es.ownWrites {
		v := s.varState(w.v)
		s.spill.writers.push(&v.writers, v.writerBuf[:0], writerRec{retireSeq, w.val})
	}
	// minLiveCreate may recycle es; its lists stay intact until es or
	// an episode spill array is taken again, which nothing below does.
	touched, ownWrites := es.touched, es.ownWrites
	minLive := s.minLiveCreate()
	for _, varID := range touched {
		s.advanceSeal(varID, s.fold(varID), minLive)
	}
	for _, w := range ownWrites {
		s.pruneWriters(s.fold(w.v), minLive)
	}
}

// advanceSeal seals the variable's leading intervals: one is final
// once its episode retired and every live episode was created after
// its start (so nothing can ever sort before or into that prefix).
// Each sealed interval is checked against its left neighbor — the
// same adjacent-pair rule the post-hoc checker applies to the fully
// sorted list — then dropped.
func (s *Stream) advanceSeal(varID int, v *varState, minLive uint64) {
	sealed := 0
	for sealed < len(v.intervals) {
		cur := v.intervals[sealed]
		if !cur.retired || cur.lo >= minLive {
			break
		}
		if v.hasPrev {
			s.checkPair(varID, v.prev, cur)
		}
		v.prev, v.hasPrev = cur, true
		sealed++
	}
	if sealed > 0 {
		s.spill.intervals.shrink(&v.intervals, v.ivalBuf[:0], copy(v.intervals, v.intervals[sealed:]))
	}
}

func (s *Stream) checkPair(varID int, prev, cur ival) {
	if cur.lo < prev.hi && (prev.writes || cur.writes) {
		s.a2overlap = append(s.a2overlap, overlapViol{
			v: varID, lo: cur.lo,
			viol: Violation{
				Axiom: "A2-exclusivity",
				Message: fmt.Sprintf("data var %d: episodes %d and %d overlap with a writer (lifetimes [%d,%d] and [%d,%d])",
					varID, prev.ep, cur.ep, prev.lo, prev.hi, cur.lo, cur.hi),
			},
		})
	}
}

// pruneWriters drops retired writers superseded for every possible
// future reader: if the second-oldest writer retired before the
// oldest live episode was created, no reader can ever need the
// oldest.
func (s *Stream) pruneWriters(v *varState, minLive uint64) {
	drop := 0
	for drop+1 < len(v.writers) && v.writers[drop+1].retireSeq < minLive {
		drop++
	}
	if drop > 0 {
		s.spill.writers.shrink(&v.writers, v.writerBuf[:0], copy(v.writers, v.writers[drop:]))
	}
}

// Finish retires the worker, closes the stream and returns every
// violation, in the same order the post-hoc checker reports them. It
// is idempotent.
func (s *Stream) Finish() []Violation {
	s.join()
	if s.finished {
		return s.result
	}
	s.finished = true

	var out []Violation

	// A1, per sync variable ascending.
	for vid := range s.atomics {
		if viol, bad := s.atomics[vid].firstBreak(vid, s.delta); bad {
			out = append(out, viol)
		}
	}

	// A2: episodes that never retired get an unbounded lifetime, then
	// the remaining unsealed suffixes run the final adjacent-pair
	// sweep.
	for vid := 0; vid < s.nvars; vid++ {
		v := s.fold(vid)
		if v == nil {
			continue
		}
		for i := range v.intervals {
			if !v.intervals[i].retired {
				v.intervals[i].hi = ^uint64(0)
				v.intervals[i].retired = true
			}
		}
		s.advanceSeal(vid, v, ^uint64(0))
	}
	out = append(out, s.a2unknown...)
	if len(s.a2overlap) > 1 {
		sort.Slice(s.a2overlap, func(i, j int) bool {
			if s.a2overlap[i].v != s.a2overlap[j].v {
				return s.a2overlap[i].v < s.a2overlap[j].v
			}
			return s.a2overlap[i].lo < s.a2overlap[j].lo
		})
	}
	for _, ov := range s.a2overlap {
		out = append(out, ov.viol)
	}

	out = append(out, s.a3...)
	s.result = out
	return out
}

// firstBreak reconstructs the first index at which the sorted old
// values would break the {0, k, 2k, …} progression, by merge-walking
// the contiguous prefix with the sorted pending leftovers. A drained
// pending multiset means the history is serializable.
func (a *atomicState) firstBreak(varID int, delta uint32) (Violation, bool) {
	if a.npend == 0 {
		return Violation{}, false
	}
	pend := make([]uint32, 0, a.npend)
	a.pending.Each(func(val uint32, n *int) {
		for i := 0; i < *n; i++ {
			pend = append(pend, val)
		}
	})
	sort.Slice(pend, func(i, j int) bool { return pend[i] < pend[j] })
	ci, pi := 0, 0
	for i := 0; ci < a.contig || pi < len(pend); i++ {
		var got uint32
		if ci < a.contig && (pi >= len(pend) || uint32(ci)*delta <= pend[pi]) {
			got = uint32(ci) * delta
			ci++
		} else {
			got = pend[pi]
			pi++
		}
		if want := uint32(i) * delta; got != want {
			return Violation{
				Axiom: "A1-atomic-serialization",
				Message: fmt.Sprintf("sync var %d: sorted old values break the progression at index %d: got %d, want %d (duplicate or skipped fetch-add)",
					varID, i, got, want),
			}, true
		}
	}
	return Violation{}, false
}
