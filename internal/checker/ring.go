package checker

import (
	"runtime"
	"sync/atomic"
)

// This file moves an online Stream's folding off the tester's critical
// path. The kernel thread publishes completed operations and episode
// boundary events into a fixed-capacity single-producer/single-consumer
// ring; a dedicated checker goroutine drains the ring and folds each
// event. Because begin/observe/retire ordering is what the Stream's
// soundness argument rests on, all three event kinds share the one
// ring — publication order IS fold order, so the violations are
// identical, in content and order, to folding on the caller.
//
// Only NewOnlineStream gives a stream a ring, and only when GOMAXPROCS
// is above 1: on a single-CPU process a second goroutine buys nothing
// and the handoff costs a scheduler round-trip per batch. A cut drops
// the ring for good (Stream.foldInline).
//
// The producer side is not safe for concurrent use — exactly one
// goroutine (the kernel loop) may call the Stream's methods.

// ring is the SPSC handoff. tail is written only by the producer, head
// only by the consumer; both are read across threads. Capacity is a
// power of two so index math is a mask. wr is the producer's private
// write index: slots [tail, wr) are written but not yet published, and
// publish hands them over a batch at a time. slots is allocated when
// the worker first starts, so a stream cut before its first event —
// the explorer's, whose root cut precedes the run — never pays for it.
type ring struct {
	slots []streamEvent
	wr    uint64
	head  atomic.Uint64
	tail  atomic.Uint64

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

// ringSize is the event ring capacity. Deep enough to absorb
// bursts (a wavefront's worth of completions per tick), small enough
// that backpressure engages before the checker falls a whole run
// behind. Must be a power of two.
const ringSize = 1 << 12

// publishBatch is how many events the producer writes between two
// publications. The checker folds an event in a fraction of the time
// the simulator takes to produce one, so it parks whenever the ring
// runs dry, and waking a parked worker is a futex call on the kernel
// thread — tens of microseconds where the two threads sit on different
// virtual CPUs. Publishing per event paid that whenever the worker had
// dozed off; a batch pays it at most once per batch, and keeps the
// checker at most a batch behind mid-run — nothing reads the folds
// before a cut or Finish, and both publish first. Sized on 1 000- and
// 90 000-event runs with 1 µs between events: 64 was slower than
// publishing per event (every batch found the worker asleep), 256 was
// 15 % faster, 512 and 1 024 20 %, on the short run too, where the
// batch the worker still has to fold at Finish weighs most. Must be a
// power of two below ringSize.
const publishBatch = 512

type evKind uint8

const (
	evOp evKind = iota
	evBegin
	evRetire
)

// streamEvent is one ring slot: an operation, an episode creation, or
// an episode retirement, tagged so the consumer folds it through the
// matching Stream fold.
type streamEvent struct {
	op   Op
	id   uint64
	seq  uint64
	kind evKind
}

func newRing() *ring { return &ring{notify: make(chan struct{}, 1)} }

// NewOnlineStream builds the stream a tester checks its run with: it
// folds on its own goroutine, through the ring, when GOMAXPROCS is
// above 1, and on the caller otherwise. The worker and its ring's
// slots start lazily on the first event, so an idle stream costs
// nothing.
func NewOnlineStream(atomicDelta uint32) *Stream {
	s := NewStream(atomicDelta)
	if runtime.GOMAXPROCS(0) > 1 {
		s.ring = newRing()
	}
	return s
}

// push writes e into the next slot, which the last batch boundary
// reserved, and publishes at each boundary: every publishBatch-th event.
func (s *Stream) push(e streamEvent) {
	r := s.ring
	if !r.running {
		s.start()
	}
	r.slots[r.wr&(ringSize-1)] = e
	r.wr++
	if r.wr&(publishBatch-1) != 0 {
		return
	}
	r.publish()
	for r.wr+publishBatch-r.head.Load() > ringSize {
		// No room for the next batch: the checker is behind. Yield the
		// producer — on a loaded box this is the backpressure that keeps
		// the checker's lag bounded by the ring capacity.
		runtime.Gosched()
	}
}

// publish hands every written event to the consumer and wakes it if it
// parked.
func (r *ring) publish() {
	r.tail.Store(r.wr)
	if r.sleeping.Load() {
		select {
		case r.notify <- struct{}{}:
		default:
		}
	}
}

func (s *Stream) start() {
	r := s.ring
	if r.slots == nil {
		r.slots = make([]streamEvent, ringSize)
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	r.running = true
	go s.run()
}

// run is the consumer: drain the ring into the folds, park when empty,
// exit when stopped AND drained. head is advanced only after the fold,
// so head==tail means every published event has been fully folded.
func (s *Stream) run() {
	r := s.ring
	defer close(r.done)
	for {
		h := r.head.Load()
		if h == r.tail.Load() {
			r.sleeping.Store(true)
			if h != r.tail.Load() {
				r.sleeping.Store(false)
				continue
			}
			select {
			case <-r.notify:
				r.sleeping.Store(false)
				continue
			case <-r.stop:
				r.sleeping.Store(false)
				if h == r.tail.Load() {
					return
				}
				continue
			}
		}
		e := r.slots[h&(ringSize-1)]
		switch e.kind {
		case evOp:
			s.observe(e.op)
		case evBegin:
			s.beginEpisode(e.id, e.seq)
		case evRetire:
			s.retireEpisode(e.id, e.seq)
		}
		r.head.Store(h + 1)
	}
}

// join publishes what is written, drains the ring and retires the
// worker goroutine. After join (and before the next event) the stream
// is quiescent: wr == tail == head and the producer may read or mutate
// the folds directly. The next event restarts the worker.
func (s *Stream) join() {
	r := s.ring
	if r == nil || !r.running {
		return
	}
	r.publish()
	close(r.stop)
	<-r.done
	r.running = false
}

// rewind retires the worker and empties the ring for a fresh run.
func (s *Stream) rewind() {
	s.join()
	if r := s.ring; r != nil {
		r.wr = 0
		r.head.Store(0)
		r.tail.Store(0)
	}
}

// foldInline drains the ring, retires its worker and drops the ring:
// from then on the stream folds on the caller, Reset included. A cut
// calls it. Every cut must first wait for the worker to fold what it
// was handed, so a stream that is cut at every choice point would
// only ever hand its thread work and wait for it; a stream that is
// never cut keeps its thread for life.
func (s *Stream) foldInline() {
	s.join()
	s.ring = nil
}

// Close retires the worker goroutine without finishing the stream.
// For owners discarding a stream mid-run.
func (s *Stream) Close() { s.join() }
