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
// A cut stores the folds flat: each episode's own writes and touched
// variables, and each variable's intervals and writers, are ranges of
// four arenas shared by the whole snapshot (saveEp/loadEp,
// saveVar/loadVar), so a fresh cut allocates a handful of slices
// however many folds it holds. Atomic folds keep one copy routine,
// copyAtomic, in both directions.

// StreamSnapshot is a Stream cut; obtain via Stream.Snapshot,
// reinstate via Restore.
type StreamSnapshot struct {
	delta uint32

	// The first nLive entries of eps are the live queue in order
	// (including dead heads not yet popped, which are no longer in the
	// eps table); entries after that are unknown-episode records, which
	// are only in the table.
	eps   []epSave
	nLive int

	// atomics and vars hold the folds of the ids in use, indexed by
	// variable id.
	atomics []atomicState
	vars    []varSave

	// The arenas the eps' and vars' spans index.
	ownWrites []ownWrite
	touched   []int
	intervals []ival
	writers   []writerRec

	a2unknown []Violation
	a2overlap []overlapViol
	a3        []Violation

	finished bool
	result   []Violation
}

// span is a range of one of a StreamSnapshot's arenas.
type span struct{ off, n int32 }

// spanOf is where x lands when appended to arena.
func spanOf[T any](arena, x []T) span { return span{int32(len(arena)), int32(len(x))} }

// within is sp's range of arena.
func within[T any](arena []T, sp span) []T { return arena[sp.off : sp.off+sp.n] }

// epSave is an episode fold in a StreamSnapshot.
type epSave struct {
	id, createSeq      uint64
	known, dead        bool
	ownWrites, touched span
}

// varSave is a variable fold in a StreamSnapshot.
type varSave struct {
	intervals span
	prev      ival
	hasPrev   bool
	writers   span
}

func (v *varSave) isEmpty() bool { return v.intervals.n == 0 && v.writers.n == 0 && !v.hasPrev }

// saveEp appends es to the snapshot, its slices to the arenas.
func (snap *StreamSnapshot) saveEp(es *epState) {
	snap.eps = append(snap.eps, epSave{
		id: es.id, createSeq: es.createSeq, known: es.known, dead: es.dead,
		ownWrites: spanOf(snap.ownWrites, es.ownWrites), touched: spanOf(snap.touched, es.touched),
	})
	snap.ownWrites = append(snap.ownWrites, es.ownWrites...)
	snap.touched = append(snap.touched, es.touched...)
}

// loadEp refills es from a saved episode, its lists into its inline
// buffers or arrays of the stream's spill pools.
func (s *Stream) loadEp(snap *StreamSnapshot, es *epState, sv *epSave) {
	es.id, es.createSeq, es.known, es.dead = sv.id, sv.createSeq, sv.known, sv.dead
	s.spill.ownWrites.resize(&es.ownWrites, es.ownBuf[:0], int(sv.ownWrites.n))
	copy(es.ownWrites, within(snap.ownWrites, sv.ownWrites))
	s.spill.touched.resize(&es.touched, es.touchedBuf[:0], int(sv.touched.n))
	copy(es.touched, within(snap.touched, sv.touched))
}

// saveVar appends v to the snapshot, its slices to the arenas.
func (snap *StreamSnapshot) saveVar(v *varState) {
	snap.vars = append(snap.vars, varSave{
		intervals: spanOf(snap.intervals, v.intervals), prev: v.prev, hasPrev: v.hasPrev,
		writers: spanOf(snap.writers, v.writers),
	})
	snap.intervals = append(snap.intervals, v.intervals...)
	snap.writers = append(snap.writers, v.writers...)
}

// loadVar refills v from a saved variable, its lists into its inline
// buffers or arrays of the stream's spill pools.
func (s *Stream) loadVar(snap *StreamSnapshot, v *varState, sv *varSave) {
	s.spill.intervals.resize(&v.intervals, v.ivalBuf[:0], int(sv.intervals.n))
	copy(v.intervals, within(snap.intervals, sv.intervals))
	v.prev, v.hasPrev = sv.prev, sv.hasPrev
	s.spill.writers.resize(&v.writers, v.writerBuf[:0], int(sv.writers.n))
	copy(v.writers, within(snap.writers, sv.writers))
}

// Reset rearms the stream for a fresh run, keeping its ring, its
// tables, the episode free list and the variable folds' storage so a
// campaign's per-seed loop does not rebuild them. The worker is
// retired and the ring emptied first. Dropped episode records are
// harvested into the free list; no variable id is in use any more.
func (s *Stream) Reset(atomicDelta uint32) {
	s.rewind()
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

// harvest recycles every reachable epState: the live queue tail (live
// episodes plus dead not-yet-popped heads) and the table's
// unknown-episode records. Live known episodes appear in both
// structures but are harvested once, from the queue.
func (s *Stream) harvest() {
	for _, es := range s.liveQ[s.liveHead:] {
		s.recycle(es)
	}
	s.eps.Each(func(_ uint64, es **epState) {
		if !(*es).known {
			s.recycle(*es)
		}
	})
}

func copyAtomic(dst, src *atomicState) {
	pending := dst.pending
	*dst = *src
	pending.CopyFrom(&src.pending)
	dst.pending = pending
}

// Snapshot deep-captures the fold state. The ring is never part of a
// cut: the first cut drains it and drops it (foldInline), so the folds
// alone are the cut.
func (s *Stream) Snapshot() *StreamSnapshot { return s.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling snap, a snapshot of this stream
// the caller knows is dead (nil allocates).
func (s *Stream) SnapshotInto(snap *StreamSnapshot) *StreamSnapshot {
	s.foldInline()
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
	neps, nown, ntouched := len(live), 0, 0
	count := func(es *epState) {
		nown += len(es.ownWrites)
		ntouched += len(es.touched)
	}
	for _, es := range live {
		count(es)
	}
	s.eps.Each(func(_ uint64, es **epState) {
		if !(*es).known {
			neps++
			count(*es)
		}
	})
	snap.eps = slices.Grow(snap.eps[:0], neps)
	snap.ownWrites = slices.Grow(snap.ownWrites[:0], nown)
	snap.touched = slices.Grow(snap.touched[:0], ntouched)
	for _, es := range live {
		snap.saveEp(es)
	}
	s.eps.Each(func(_ uint64, es **epState) {
		if !(*es).known {
			snap.saveEp(*es)
		}
	})
	snap.atomics = resize(snap.atomics, len(s.atomics))
	for v := range s.atomics {
		copyAtomic(&snap.atomics[v], &s.atomics[v])
	}
	var none varState
	nivals, nwriters := 0, 0
	for v := 0; v < s.nvars; v++ {
		if src := s.fold(v); src != nil {
			nivals += len(src.intervals)
			nwriters += len(src.writers)
		}
	}
	snap.vars = slices.Grow(snap.vars[:0], s.nvars)
	snap.intervals = slices.Grow(snap.intervals[:0], nivals)
	snap.writers = slices.Grow(snap.writers[:0], nwriters)
	for v := 0; v < s.nvars; v++ {
		src := s.fold(v)
		if src == nil {
			src = &none
		}
		snap.saveVar(src)
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
// into its id's place. Like a cut, a restore leaves the stream
// folding on the caller.
func (s *Stream) Restore(snap *StreamSnapshot) {
	s.foldInline()
	s.delta = snap.delta
	s.harvest()
	s.eps.Clear()
	s.liveQ, s.liveHead = s.liveQ[:0], 0
	for i := range snap.eps {
		es := s.newEpState()
		s.loadEp(snap, es, &snap.eps[i])
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
			s.loadVar(snap, dst, &snap.vars[v])
		} else if !snap.vars[v].isEmpty() {
			s.loadVar(snap, s.rec(v), &snap.vars[v])
		}
	}
	s.nvars = len(snap.vars)
	s.a2unknown = append(s.a2unknown[:0], snap.a2unknown...)
	s.a2overlap = append(s.a2overlap[:0], snap.a2overlap...)
	s.a3 = append(s.a3[:0], snap.a3...)
	s.finished = snap.finished
	s.result = append([]Violation(nil), snap.result...)
}
