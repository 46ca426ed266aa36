package checker

import (
	"fmt"
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
type Stream struct {
	delta uint32

	eps    table.Table[uint64, *epState]
	epFree []*epState
	// liveQ lists live episodes in creation order; liveHead is the
	// first possibly-live entry, so the minimum live CreateSeq is
	// found by popping dead heads.
	liveQ    []*epState
	liveHead int

	atomics table.Table[int, *atomicState]
	data    table.Table[int, *varState]
	// atomicFree and varFree hold the fold records a Restore displaced,
	// for the next Restore (or, for varFree, the next new variable) to
	// refill.
	atomicFree []*atomicState
	varFree    []*varState
	// varSlab is the chunked storage every varState is carved from,
	// varNext how many records are handed out; Reset rewinds it, so a
	// reused stream allocates per run only what outgrew a record.
	varSlab [][]varRec
	varNext int

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

// NewStream creates an empty online checker. atomicDelta is the
// constant every fetch-add adds (0 means 1, matching the trace
// default).
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
type epState struct {
	id        uint64
	createSeq uint64
	known     bool // BeginEpisode seen; ops may reference unknown IDs
	dead      bool
	ownWrites []ownWrite
	touched   []int
}

func (e *epState) own(v int) (uint32, bool) {
	for i := len(e.ownWrites) - 1; i >= 0; i-- {
		if e.ownWrites[i].v == v {
			return e.ownWrites[i].val, true
		}
	}
	return 0, false
}

func (e *epState) setOwn(v int, val uint32) {
	for i := range e.ownWrites {
		if e.ownWrites[i].v == v {
			e.ownWrites[i].val = val
			return
		}
	}
	e.ownWrites = append(e.ownWrites, ownWrite{v, val})
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

// varState is the per-data-variable fold for A2 and A3.
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
}

// varRec is a varState in the slab with the first capacity of both its
// slices beside it: most variables never hold more than four unsealed
// intervals or two reachable writers, so they never allocate.
type varRec struct {
	varState
	ivalBuf   [4]ival
	writerBuf [2]writerRec
}

// varChunk is the slab's growth step, in records (≈ 16 KB).
const varChunk = 64

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
		*es = epState{ownWrites: es.ownWrites[:0], touched: es.touched[:0]}
		return es
	}
	return &epState{}
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
		s.epFree = append(s.epFree, s.liveQ[s.liveHead])
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

func (s *Stream) varState(v int) *varState {
	vs := s.data.Slot(v)
	if *vs == nil {
		*vs = s.newVarState()
	}
	return *vs
}

// newVarState returns an empty record — one a Restore displaced, else
// the slab's next — keeping whatever slice capacity it has.
func (s *Stream) newVarState() *varState {
	var v *varState
	if n := len(s.varFree); n > 0 {
		v, s.varFree = s.varFree[n-1], s.varFree[:n-1]
	} else {
		if s.varNext == len(s.varSlab)*varChunk {
			s.varSlab = append(s.varSlab, make([]varRec, varChunk))
		}
		r := &s.varSlab[s.varNext/varChunk][s.varNext%varChunk]
		s.varNext++
		if r.intervals == nil {
			r.intervals, r.writers = r.ivalBuf[:0], r.writerBuf[:0]
		}
		v = &r.varState
	}
	*v = varState{intervals: v.intervals[:0], writers: v.writers[:0]}
	return v
}

// Observe folds one completed operation. Operations must arrive in
// global completion order.
func (s *Stream) Observe(op Op) {
	if op.Kind == OpAtomic {
		s.observeAtomic(op)
	}
	if !op.Sync {
		s.observeInterval(op)
	}
	s.observeValue(op)
}

// observeAtomic: axiom A1 fold.
func (s *Stream) observeAtomic(op Op) {
	slot := s.atomics.Slot(op.Var)
	if *slot == nil {
		*slot = &atomicState{}
	}
	a := *slot
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
func (s *Stream) observeInterval(op Op) {
	es := s.epState(op.Episode)
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
	v.intervals = append(v.intervals, ival{ep: op.Episode, lo: es.createSeq, writes: op.Kind == OpStore})
	// First accesses arrive nearly sorted by creation; restore order
	// from the back.
	for i := len(v.intervals) - 1; i > 0 && v.intervals[i].lo < v.intervals[i-1].lo; i-- {
		v.intervals[i], v.intervals[i-1] = v.intervals[i-1], v.intervals[i]
	}
	es.touched = append(es.touched, op.Var)
}

// observeValue: axiom A3 fold and check.
func (s *Stream) observeValue(op Op) {
	switch op.Kind {
	case OpStore:
		s.epState(op.Episode).setOwn(op.Var, op.Value)
	case OpLoad:
		es := s.epState(op.Episode)
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
		if v, _ := s.data.Get(op.Var); v != nil {
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

// RetireEpisode folds an episode's retirement: its intervals get
// their upper bound, its final writes become retired-writer values,
// and any interval now safely ordered before every live episode is
// sealed (checked against its neighbor and dropped). Calls must
// arrive in increasing retireSeq order, after all of the episode's
// operations have been observed.
func (s *Stream) RetireEpisode(id, retireSeq uint64) {
	es, _ := s.eps.Get(id)
	if es == nil || !es.known || es.dead {
		return
	}
	es.dead = true
	s.eps.Delete(id)
	for _, varID := range es.touched {
		v, _ := s.data.Get(varID)
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
		v.writers = append(v.writers, writerRec{retireSeq, w.val})
	}
	// es may be recycled by minLiveCreate; its slices stay intact
	// until the next BeginEpisode, so reading them below is safe.
	minLive := s.minLiveCreate()
	for _, varID := range es.touched {
		v, _ := s.data.Get(varID)
		s.advanceSeal(varID, v, minLive)
	}
	for _, w := range es.ownWrites {
		v, _ := s.data.Get(w.v)
		s.pruneWriters(v, minLive)
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
		n := copy(v.intervals, v.intervals[sealed:])
		v.intervals = v.intervals[:n]
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
		n := copy(v.writers, v.writers[drop:])
		v.writers = v.writers[:n]
	}
}

// Finish closes the stream and returns every violation, in the same
// order the post-hoc checker reports them. It is idempotent.
func (s *Stream) Finish() []Violation {
	if s.finished {
		return s.result
	}
	s.finished = true

	var out []Violation

	// A1, per sync variable ascending.
	avars := make([]int, 0, s.atomics.Len())
	s.atomics.Each(func(v int, _ **atomicState) { avars = append(avars, v) })
	sort.Ints(avars)
	for _, vid := range avars {
		a, _ := s.atomics.Get(vid)
		if viol, bad := a.firstBreak(vid, s.delta); bad {
			out = append(out, viol)
		}
	}

	// A2: episodes that never retired get an unbounded lifetime, then
	// the remaining unsealed suffixes run the final adjacent-pair
	// sweep. Emission order across variables is restored by the sort
	// below, so the table's iteration order here is harmless.
	s.data.Each(func(vid int, vs **varState) {
		v := *vs
		for i := range v.intervals {
			if !v.intervals[i].retired {
				v.intervals[i].hi = ^uint64(0)
				v.intervals[i].retired = true
			}
		}
		s.advanceSeal(vid, v, ^uint64(0))
	})
	out = append(out, s.a2unknown...)
	sort.Slice(s.a2overlap, func(i, j int) bool {
		if s.a2overlap[i].v != s.a2overlap[j].v {
			return s.a2overlap[i].v < s.a2overlap[j].v
		}
		return s.a2overlap[i].lo < s.a2overlap[j].lo
	})
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
