package checker

import "slices"

// This file gives the online Stream checker the same rewind/rearm
// surface the rest of the stack has: Reset (campaign reuse),
// Snapshot/Restore (checkpointed replay). The fold state is small by
// design — bounded by live episodes plus touched variables — so a cut
// is cheap relative to the system snapshots taken alongside it.
//
// Identity doctrine: nothing outside the Stream holds epState or
// varState pointers, so Restore is free to rebuild them. The one
// identity constraint is internal — a live episode's epState is
// reachable from both the eps table and the liveQ, and RetireEpisode
// communicates death to minLiveCreate through that shared object — so
// Restore materializes each saved episode exactly once and links it
// into both structures. Variable folds are index-addressed on both
// sides, so a cut and a restore copy them into place.
//
// Saving and restoring a fold is the same copy in opposite directions
// (copyEp, copyVar, copyAtomic), always refilling the destination's
// own slices and table.

// StreamSnapshot is a Stream cut; obtain via Stream.Snapshot (or
// Pipeline.Snapshot, which quiesces the ring first), reinstate via
// Restore.
type StreamSnapshot struct {
	delta uint32

	// The first nLive entries of eps are the live queue in order
	// (including dead heads not yet popped, which are no longer in the
	// eps table); entries after that are unknown-episode records, which
	// are only in the table.
	eps   []epState
	nLive int

	// atomics and vars hold the folds of the ids in use, indexed by
	// variable id.
	atomics []atomicState
	vars    []varState

	a2unknown []Violation
	a2overlap []overlapViol
	a3        []Violation

	finished bool
	result   []Violation
}

// Reset rearms the stream for a fresh run, keeping its tables, the
// episode free list and the variable folds' storage so a campaign's
// per-seed loop does not rebuild them. Dropped episode records are
// harvested into the free list; no variable id is in use any more.
func (s *Stream) Reset(atomicDelta uint32) {
	if atomicDelta == 0 {
		atomicDelta = 1
	}
	s.delta = atomicDelta
	s.harvest()
	s.eps.Clear()
	s.liveQ, s.liveHead = s.liveQ[:0], 0
	s.atomics, s.nvars = s.atomics[:0], 0
	s.a2unknown = s.a2unknown[:0]
	s.a2overlap = s.a2overlap[:0]
	s.a3 = s.a3[:0]
	s.finished, s.result = false, nil
}

// harvest moves every reachable epState onto the free list: the live
// queue tail (live episodes plus dead not-yet-popped heads) and the
// table's unknown-episode records. Live known episodes appear in both
// structures but are harvested once, from the queue.
func (s *Stream) harvest() {
	s.epFree = append(s.epFree, s.liveQ[s.liveHead:]...)
	s.eps.Each(func(_ uint64, es **epState) {
		if !(*es).known {
			s.epFree = append(s.epFree, *es)
		}
	})
}

func copyEp(dst, src *epState) {
	own, touched := dst.ownWrites, dst.touched
	*dst = *src
	dst.ownWrites = append(own[:0], src.ownWrites...)
	dst.touched = append(touched[:0], src.touched...)
}

func copyVar(dst, src *varState) {
	dst.intervals = append(dst.intervals[:0], src.intervals...)
	dst.prev, dst.hasPrev = src.prev, src.hasPrev
	dst.writers = append(dst.writers[:0], src.writers...)
}

func copyAtomic(dst, src *atomicState) {
	pending := dst.pending
	*dst = *src
	pending.CopyFrom(&src.pending)
	dst.pending = pending
}

// Snapshot deep-captures the fold state. The caller must hold the
// stream quiescent (no concurrent folding) — Pipeline.Snapshot
// arranges this by flushing the ring first.
func (s *Stream) Snapshot() *StreamSnapshot { return s.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling snap, a snapshot of this stream
// the caller knows is dead (nil allocates).
func (s *Stream) SnapshotInto(snap *StreamSnapshot) *StreamSnapshot {
	if snap == nil {
		snap = &StreamSnapshot{}
	}
	snap.delta = s.delta
	snap.a2unknown = append(snap.a2unknown[:0], s.a2unknown...)
	snap.a2overlap = append(snap.a2overlap[:0], s.a2overlap...)
	snap.a3 = append(snap.a3[:0], s.a3...)
	snap.finished = s.finished
	snap.result = append(snap.result[:0], s.result...)

	live := s.liveQ[s.liveHead:]
	snap.nLive = len(live)
	snap.eps = snap.eps[:0]
	for _, es := range live {
		snap.eps = slices.Grow(snap.eps, 1)[:len(snap.eps)+1]
		copyEp(&snap.eps[len(snap.eps)-1], es)
	}
	s.eps.Each(func(_ uint64, es **epState) {
		if !(*es).known {
			snap.eps = slices.Grow(snap.eps, 1)[:len(snap.eps)+1]
			copyEp(&snap.eps[len(snap.eps)-1], *es)
		}
	})
	snap.atomics = resize(snap.atomics, len(s.atomics))
	for v := range s.atomics {
		copyAtomic(&snap.atomics[v], &s.atomics[v])
	}
	snap.vars = resize(snap.vars, s.nvars)
	var none varState
	for v := range snap.vars {
		src := s.fold(v)
		if src == nil {
			src = &none
		}
		copyVar(&snap.vars[v], src)
	}
	return snap
}

// resize returns x with length n, keeping its storage when it is large
// enough; the contents are the caller's to refill.
func resize[T any](x []T, n int) []T {
	if n <= cap(x) {
		return x[:n]
	}
	return append(x[:cap(x)], make([]T, n-cap(x))...)
}

// Restore reinstates a cut captured by Snapshot. Current episode
// records are harvested for reuse; every saved episode is rebuilt once
// and linked into the eps table and/or the live queue exactly as the
// save recorded (dead queue heads stay out of the table, unknown
// records stay out of the queue). Every saved variable fold is copied
// into its id's place.
func (s *Stream) Restore(snap *StreamSnapshot) {
	s.delta = snap.delta
	s.harvest()
	s.eps.Clear()
	s.liveQ, s.liveHead = s.liveQ[:0], 0
	for i := range snap.eps {
		es := s.newEpState()
		copyEp(es, &snap.eps[i])
		if i < snap.nLive {
			s.liveQ = append(s.liveQ, es)
		}
		if !es.dead {
			s.eps.Put(es.id, es)
		}
	}
	s.atomics = resize(s.atomics, len(snap.atomics))
	for v := range snap.atomics {
		copyAtomic(&s.atomics[v], &snap.atomics[v])
	}
	for v := range snap.vars {
		if dst := s.fold(v); dst != nil {
			copyVar(dst, &snap.vars[v])
		} else if !snap.vars[v].isEmpty() {
			copyVar(s.rec(v), &snap.vars[v])
		}
	}
	s.nvars = len(snap.vars)
	s.a2unknown = append(s.a2unknown[:0], snap.a2unknown...)
	s.a2overlap = append(s.a2overlap[:0], snap.a2overlap...)
	s.a3 = append(s.a3[:0], snap.a3...)
	s.finished = snap.finished
	s.result = append([]Violation(nil), snap.result...)
}
