package checker

import (
	"runtime"
	"sync/atomic"
)

// Pipeline moves the online Stream checker off the tester's critical
// path. The kernel thread publishes completed operations and episode
// boundary events into a fixed-capacity single-producer/single-consumer
// ring; a dedicated checker goroutine drains the ring and folds each
// event into the Stream. Because begin/observe/retire ordering is what
// the Stream's soundness argument rests on, all three event kinds share
// the one ring — publication order IS fold order, so the violations are
// identical, in content and order, to folding inline.
//
// On a single-CPU process (GOMAXPROCS=1) a second goroutine buys
// nothing and the ring handoff costs a scheduler round-trip per batch,
// so the pipeline falls back to folding inline on the caller. Inline
// mode can also be forced (Config.StreamInline) for determinism
// triage: the two modes must produce byte-identical reports, and the
// knob lets a harness pin either side of that comparison.
//
// The producer side is not safe for concurrent use — exactly one
// goroutine (the kernel loop) may call BeginEpisode/Observe/
// RetireEpisode/Flush/Finish/Reset/Snapshot/Restore.
type Pipeline struct {
	stream *Stream
	force  bool // caller forced inline mode
	inline bool

	// SPSC ring. tail is written only by the producer, head only by
	// the consumer; both are read across threads. Capacity is a power
	// of two so index math is a mask. wr is the producer's private
	// write index: slots [tail, wr) are written but not yet published,
	// and publish hands them over a batch at a time.
	ring []streamEvent
	mask uint64
	wr   uint64
	head atomic.Uint64
	tail atomic.Uint64

	// Consumer parking: the worker sets sleeping before re-checking
	// the ring and blocking on notify; the producer checks sleeping
	// after publishing and kicks the (capacity-1) channel. The
	// recheck-after-arm order makes the lost-wakeup race benign.
	sleeping atomic.Bool
	notify   chan struct{}
	stop     chan struct{}
	done     chan struct{}
	running  bool
}

// pipelineRingSize is the event ring capacity. Deep enough to absorb
// bursts (a wavefront's worth of completions per tick), small enough
// that backpressure engages before the checker falls a whole run
// behind. Must be a power of two.
const pipelineRingSize = 1 << 12

// publishBatch is how many events the producer writes between two
// publications. The checker folds an event in a fraction of the time
// the simulator takes to produce one, so it parks whenever the ring
// runs dry, and waking a parked worker is a futex call on the kernel
// thread — tens of microseconds where the two threads sit on different
// virtual CPUs. Publishing per event paid that whenever the worker had
// dozed off; a batch pays it at most once per batch, and keeps the
// checker at most a batch behind mid-run — nothing reads the Stream
// before Flush or Finish, and both publish first. Sized on 1 000- and
// 90 000-event runs with 1 µs between events: 64 was slower than
// publishing per event (every batch found the worker asleep), 256 was
// 15 % faster, 512 and 1 024 20 %, on the short run too, where the
// batch the worker still has to fold at Finish weighs most. Must be a
// power of two below pipelineRingSize.
const publishBatch = 512

type evKind uint8

const (
	evOp evKind = iota
	evBegin
	evRetire
)

// streamEvent is one ring slot: an operation, an episode creation, or
// an episode retirement, tagged so the consumer folds it through the
// matching Stream entry point.
type streamEvent struct {
	op   Op
	id   uint64
	seq  uint64
	kind evKind
}

// NewPipeline builds a checker pipeline over a fresh Stream.
// forceInline pins inline folding; otherwise the mode is picked from
// GOMAXPROCS at construction. The worker goroutine starts lazily on
// the first event, so an idle pipeline costs nothing.
func NewPipeline(atomicDelta uint32, forceInline bool) *Pipeline {
	p := newPipeline(atomicDelta, forceInline || runtime.GOMAXPROCS(0) <= 1)
	p.force = forceInline
	return p
}

// newPipeline pins the mode directly — the seam tests use to exercise
// the threaded ring even on a single-CPU runner.
func newPipeline(atomicDelta uint32, inline bool) *Pipeline {
	p := &Pipeline{
		stream: NewStream(atomicDelta),
		inline: inline,
	}
	if !p.inline {
		p.ring = make([]streamEvent, pipelineRingSize)
		p.mask = pipelineRingSize - 1
		p.notify = make(chan struct{}, 1)
	}
	return p
}

// Inline reports whether events are folded on the caller (no worker).
func (p *Pipeline) Inline() bool { return p.inline }

// ForcedInline reports whether inline mode was requested at
// construction (as opposed to the GOMAXPROCS fallback).
func (p *Pipeline) ForcedInline() bool { return p.force }

// BeginEpisode publishes an episode creation. Calls must arrive in
// increasing createSeq order, like Stream.BeginEpisode.
func (p *Pipeline) BeginEpisode(id, createSeq uint64) {
	if p.inline {
		p.stream.BeginEpisode(id, createSeq)
		return
	}
	p.push(streamEvent{kind: evBegin, id: id, seq: createSeq})
}

// Observe publishes one completed operation in global completion
// order.
func (p *Pipeline) Observe(op Op) {
	if p.inline {
		p.stream.Observe(op)
		return
	}
	p.push(streamEvent{kind: evOp, op: op})
}

// RetireEpisode publishes an episode retirement, after all of the
// episode's operations.
func (p *Pipeline) RetireEpisode(id, retireSeq uint64) {
	if p.inline {
		p.stream.RetireEpisode(id, retireSeq)
		return
	}
	p.push(streamEvent{kind: evRetire, id: id, seq: retireSeq})
}

// push writes e into the next slot, which the last batch boundary
// reserved, and publishes at each boundary: every publishBatch-th event.
func (p *Pipeline) push(e streamEvent) {
	if !p.running {
		p.start()
	}
	p.ring[p.wr&p.mask] = e
	p.wr++
	if p.wr&(publishBatch-1) != 0 {
		return
	}
	p.publish()
	for p.wr+publishBatch-p.head.Load() > uint64(len(p.ring)) {
		// No room for the next batch: the checker is behind. Yield the
		// producer — on a loaded box this is the backpressure that keeps
		// the checker's lag bounded by the ring capacity.
		runtime.Gosched()
	}
}

// publish hands every written event to the consumer and wakes it if it
// parked.
func (p *Pipeline) publish() {
	p.tail.Store(p.wr)
	if p.sleeping.Load() {
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
}

func (p *Pipeline) start() {
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	p.running = true
	go p.run()
}

// run is the consumer: drain the ring into the Stream, park when
// empty, exit when stopped AND drained. head is advanced only after
// the fold, so head==tail means every published event has been fully
// folded — the quiescence condition Flush and Finish wait on.
func (p *Pipeline) run() {
	defer close(p.done)
	for {
		h := p.head.Load()
		if h == p.tail.Load() {
			p.sleeping.Store(true)
			if h != p.tail.Load() {
				p.sleeping.Store(false)
				continue
			}
			select {
			case <-p.notify:
				p.sleeping.Store(false)
				continue
			case <-p.stop:
				p.sleeping.Store(false)
				if h == p.tail.Load() {
					return
				}
				continue
			}
		}
		e := p.ring[h&p.mask]
		switch e.kind {
		case evOp:
			p.stream.Observe(e.op)
		case evBegin:
			p.stream.BeginEpisode(e.id, e.seq)
		case evRetire:
			p.stream.RetireEpisode(e.id, e.seq)
		}
		p.head.Store(h + 1)
	}
}

// Flush publishes what the producer has written and blocks until every
// event has been folded. After Flush (and before the next push) the
// Stream is quiescent: wr == tail == head, the worker is parked and the
// producer may read or mutate checker state directly — the window
// Snapshot and Restore use.
func (p *Pipeline) Flush() {
	if p.inline {
		return
	}
	p.publish()
	for p.head.Load() != p.tail.Load() {
		runtime.Gosched()
	}
}

// join publishes what is written, drains the ring and retires the
// worker goroutine. The next push restarts it.
func (p *Pipeline) join() {
	if !p.running {
		return
	}
	p.publish()
	close(p.stop)
	<-p.done
	p.running = false
}

// Finish quiesces the pipeline and closes the stream, returning every
// violation in reference order. Idempotent, like Stream.Finish.
func (p *Pipeline) Finish() []Violation {
	p.join()
	return p.stream.Finish()
}

// Close retires the worker goroutine without finishing the stream.
// For owners discarding a pipeline mid-run.
func (p *Pipeline) Close() { p.join() }

// Reset rearms the pipeline for a fresh run: the worker is drained
// and retired, the ring rewound, and the stream reset in place — the
// ring and the stream's fold tables are retained, so a campaign's
// reset-per-seed loop does not rebuild them.
func (p *Pipeline) Reset(atomicDelta uint32) {
	p.join()
	p.wr = 0
	p.head.Store(0)
	p.tail.Store(0)
	p.stream.Reset(atomicDelta)
}

// Snapshot quiesces the pipeline and captures the checker state. The
// ring itself is never part of a snapshot: Flush empties it first, so
// the Stream alone is the cut.
func (p *Pipeline) Snapshot() *StreamSnapshot { return p.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling s (see Stream.SnapshotInto).
func (p *Pipeline) SnapshotInto(s *StreamSnapshot) *StreamSnapshot {
	p.Flush()
	return p.stream.SnapshotInto(s)
}

// Restore quiesces the pipeline and reinstates a captured checker
// state. The parked worker observes the restored state only through
// events published afterwards, so no synchronization beyond Flush is
// needed.
func (p *Pipeline) Restore(s *StreamSnapshot) {
	p.Flush()
	p.stream.Restore(s)
}
