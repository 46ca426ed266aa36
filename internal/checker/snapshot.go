package checker

import "drftest/internal/reuse"

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
// into both structures.

// varSave and atomicSave are one variable's fold with its id. Saving
// and restoring a fold is the same copy in opposite directions
// (copyEp, copyVar, copyAtomic), always refilling the destination's
// own slices and table.
type varSave struct {
	id int
	varState
}

type atomicSave struct {
	id int
	atomicState
}

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

	atomics []atomicSave
	data    []varSave

	a2unknown []Violation
	a2overlap []overlapViol
	a3        []Violation

	finished bool
	result   []Violation
}

// Reset rearms the stream for a fresh run, keeping its tables, the
// episode free list and the variable slab so a campaign's per-seed loop
// does not rebuild them. Dropped episode records are harvested into the
// free list; every variable record is back in the rewound slab, so the
// free list that pointed into it is emptied.
func (s *Stream) Reset(atomicDelta uint32) {
	if atomicDelta == 0 {
		atomicDelta = 1
	}
	s.delta = atomicDelta
	s.harvest()
	s.eps.Clear()
	s.liveQ, s.liveHead = s.liveQ[:0], 0
	s.atomics.Clear()
	s.data.Clear()
	s.varFree, s.varNext = s.varFree[:0], 0
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
	ivals, writers := dst.intervals, dst.writers
	*dst = *src
	dst.intervals = append(ivals[:0], src.intervals...)
	dst.writers = append(writers[:0], src.writers...)
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
		copyEp(reuse.Grow(&snap.eps), es)
	}
	s.eps.Each(func(_ uint64, es **epState) {
		if !(*es).known {
			copyEp(reuse.Grow(&snap.eps), *es)
		}
	})
	snap.atomics = snap.atomics[:0]
	s.atomics.Each(func(v int, a **atomicState) {
		as := reuse.Grow(&snap.atomics)
		as.id = v
		copyAtomic(&as.atomicState, *a)
	})
	snap.data = snap.data[:0]
	s.data.Each(func(v int, vs **varState) {
		ds := reuse.Grow(&snap.data)
		ds.id = v
		copyVar(&ds.varState, *vs)
	})
	return snap
}

// Restore reinstates a cut captured by Snapshot. Current episode and
// variable records are harvested for reuse; every saved episode is
// rebuilt once and linked into the eps table and/or the live queue
// exactly as the save recorded (dead queue heads stay out of the table,
// unknown records stay out of the queue).
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
	s.atomics.Each(func(_ int, a **atomicState) { s.atomicFree = append(s.atomicFree, *a) })
	s.atomics.Clear()
	for i := range snap.atomics {
		a := reuse.Pop(&s.atomicFree)
		copyAtomic(a, &snap.atomics[i].atomicState)
		s.atomics.Put(snap.atomics[i].id, a)
	}
	s.data.Each(func(_ int, vs **varState) { s.varFree = append(s.varFree, *vs) })
	s.data.Clear()
	for i := range snap.data {
		vs := s.newVarState()
		copyVar(vs, &snap.data[i].varState)
		s.data.Put(snap.data[i].id, vs)
	}
	s.a2unknown = append(s.a2unknown[:0], snap.a2unknown...)
	s.a2overlap = append(s.a2overlap[:0], snap.a2overlap...)
	s.a3 = append(s.a3[:0], snap.a3...)
	s.finished = snap.finished
	s.result = append([]Violation(nil), snap.result...)
}
