// Package sim provides the discrete-event simulation kernel underlying
// the whole memory-system model.
//
// It plays the role of gem5's event queue: components schedule closures
// at future ticks and the kernel executes them in deterministic order.
// Events at the same tick fire in scheduling order (stable FIFO
// tie-break), which is what makes whole simulations bit-reproducible
// from a seed.
//
// The pending-event structure is built for the workload's shape: the
// vast majority of schedules in tester runs are delay-0/1
// self-reschedules (pipeline stages, lockstep rounds, link hops), so
// those bypass the priority queue entirely through two FIFO lanes
// anchored at the current and the next tick. Everything further out
// lands in a hand-rolled value-typed 4-ary min-heap — no
// container/heap, no interface boxing, no per-event pointer — so the
// steady-state event loop allocates nothing (guarded by
// TestEventLoopZeroAllocs).
package sim

import (
	"fmt"

	"drftest/internal/trace"
)

// Tick is the simulated time unit. One tick is one clock cycle of the
// memory system; latencies throughout the model are expressed in ticks.
type Tick uint64

// MaxTick is the largest representable tick, used as an "infinite"
// horizon for Run.
const MaxTick = Tick(^uint64(0))

// event is one scheduled closure. Events are held by value everywhere
// in the kernel: moving them costs a 4-word copy, never an allocation.
// tag is the event's schedule-exploration identity (unit + line
// footprint, see chooser.go); it is zero for events scheduled through
// plain Schedule and never affects the default event loop.
type event struct {
	when Tick
	seq  uint64 // stable tie-break for same-tick events
	tag  uint64
	fn   func()
}

// before is the kernel's total order: tick, then schedule order.
func (e *event) before(o *event) bool {
	return e.when < o.when || (e.when == o.when && e.seq < o.seq)
}

// eventFIFO is a growable ring buffer of events, the fast lane for
// near-tick schedules. Capacity is a power of two and persists across
// pops, so a warmed-up FIFO never allocates.
type eventFIFO struct {
	buf  []event
	head int
	n    int
}

func (f *eventFIFO) push(e event) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = e
	f.n++
}

// peek returns the oldest event; it must not be called on an empty
// FIFO. FIFO entries share one tick, so oldest == lowest seq.
func (f *eventFIFO) peek() *event { return &f.buf[f.head] }

func (f *eventFIFO) pop() event {
	slot := &f.buf[f.head]
	e := *slot
	slot.fn = nil // release the closure for GC
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return e
}

// reset drops every queued event, releasing the closures for GC while
// keeping the warmed-up ring capacity.
func (f *eventFIFO) reset() {
	for i := 0; i < f.n; i++ {
		f.buf[(f.head+i)&(len(f.buf)-1)].fn = nil
	}
	f.head, f.n = 0, 0
}

func (f *eventFIFO) grow() {
	cap2 := len(f.buf) * 2
	if cap2 == 0 {
		cap2 = 16
	}
	buf := make([]event, cap2)
	for i := 0; i < f.n; i++ {
		buf[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf = buf
	f.head = 0
}

// eventHeap4 is a value-typed 4-ary min-heap ordered by (when, seq).
// A 4-ary layout halves the tree depth of a binary heap, trading a few
// extra comparisons per level for far fewer cache-missing moves — the
// classic d-ary heap trade-off, which wins for the sift-down-heavy
// pop/push mix of an event queue.
type eventHeap4 []event

func (h eventHeap4) siftUp(i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

func (h eventHeap4) siftDown(i int) {
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}

func (h *eventHeap4) push(e event) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap4) popMin() event {
	old := *h
	e := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n].fn = nil // release the closure for GC
	*h = old[:n]
	if n > 0 {
		(*h).siftDown(0)
	}
	return e
}

// poller is one periodic service with its own cadence.
type poller struct {
	period Tick
	next   Tick
	fn     func()
}

// event sources, in tie-break-free priority order (see popNext).
const (
	srcNone = iota
	srcCurr
	srcNext
	srcFar
)

// Kernel is a single-threaded discrete-event scheduler. The zero value
// is ready to use.
//
// Invariants: every event in curr is at tick now, every event in next
// is at tick now+1, and far's minimum is at tick >= now. The three
// sources together hold the pending set; popNext merges them by
// (when, seq).
type Kernel struct {
	curr eventFIFO  // events at the current tick
	next eventFIFO  // events at the next tick
	far  eventHeap4 // events scheduled two or more ticks out

	now      Tick
	seq      uint64
	executed uint64
	stopped  bool
	pollers  []poller
	pollNext Tick // min over pollers' next-due ticks
	tracer   *trace.Ring

	// Schedule choice-point state (chooser.go). enabled holds the
	// current tick's drained, seq-sorted event set while a chooser is
	// attached; it is always empty in the default loop. candBuf,
	// candPos, and unitSeen are its per-call scratch.
	chooser  Chooser
	enabled  []event
	unitSeq  uint32
	candBuf  []Enabled
	candPos  []int
	unitSeen []uint64
}

// NewKernel returns a fresh kernel at tick zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Tick { return k.now }

// Reset returns the kernel to its just-constructed state — tick zero,
// no pending events, no pollers, stop flag cleared — while keeping the
// warmed-up queue capacities and any attached tracer. Pending events
// are dropped (their closures released for GC): a campaign reusing one
// system across runs must not let a previous run's in-flight events
// fire into the next one, so components holding state referenced by
// those events (controllers, testers) must be reset alongside.
func (k *Kernel) Reset() {
	k.curr.reset()
	k.next.reset()
	for i := range k.far {
		k.far[i].fn = nil
	}
	k.far = k.far[:0]
	for i := range k.enabled {
		k.enabled[i].fn = nil
	}
	k.enabled = k.enabled[:0]
	k.now, k.seq, k.executed = 0, 0, 0
	k.stopped = false
	k.pollers = k.pollers[:0]
	k.pollNext = 0
}

// Executed returns the number of events executed so far. It is the
// kernel-level measure of simulation work and backs the paper's
// "simulation runtime" comparisons.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of scheduled, not-yet-fired events.
func (k *Kernel) Pending() int { return k.curr.n + k.next.n + len(k.far) + len(k.enabled) }

// Schedule runs fn delay ticks from now. A zero delay runs fn later in
// the current tick, after all previously scheduled same-tick events.
func (k *Kernel) Schedule(delay Tick, fn func()) {
	k.ScheduleTagged(delay, 0, fn)
}

// ScheduleTagged is Schedule with a schedule-exploration tag (see
// chooser.go): the tag declares the event's ordering unit and line
// footprint to an attached Chooser. It has no effect on the default
// event loop.
func (k *Kernel) ScheduleTagged(delay Tick, tag uint64, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	k.seq++
	e := event{when: k.now + delay, seq: k.seq, tag: tag, fn: fn}
	switch delay {
	case 0:
		k.curr.push(e)
	case 1:
		k.next.push(e)
	default:
		k.far.push(e)
	}
}

// ScheduleAt runs fn at absolute tick when, which must not be in the
// past.
func (k *Kernel) ScheduleAt(when Tick, fn func()) {
	if when < k.now {
		panic(fmt.Sprintf("sim: ScheduleAt into the past (now=%d when=%d)", k.now, when))
	}
	k.Schedule(when-k.now, fn)
}

// AddPoller registers fn to run every period ticks while the simulation
// has work. Pollers implement periodic services such as the tester's
// forward-progress (deadlock) scan. Each poller keeps its own cadence:
// registering a fast poller does not make a slow one fire faster.
func (k *Kernel) AddPoller(period Tick, fn func()) {
	if period == 0 {
		panic("sim: poller with zero period")
	}
	if fn == nil {
		panic("sim: AddPoller with nil fn")
	}
	p := poller{period: period, next: k.now, fn: fn}
	if len(k.pollers) == 0 || p.next < k.pollNext {
		k.pollNext = p.next
	}
	k.pollers = append(k.pollers, p)
}

// Stop makes the current Run call return after the in-flight event
// completes. It is how checkers abort a simulation on a detected bug.
// The flag is sticky: later Run calls return immediately until
// ClearStop, so a Stop issued between phases is never lost.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// ClearStop re-arms a stopped kernel so a subsequent Run proceeds.
func (k *Kernel) ClearStop() { k.stopped = false }

// peekNext locates the earliest pending event across the three sources
// without removing it. It returns srcNone when nothing is pending.
func (k *Kernel) peekNext() (src int, e *event) {
	if k.curr.n > 0 {
		// curr entries are at tick now; only far can hold an
		// earlier-scheduled (lower-seq) event at the same tick.
		src, e = srcCurr, k.curr.peek()
	} else if k.next.n > 0 {
		src, e = srcNext, k.next.peek()
	}
	if len(k.far) > 0 && (e == nil || k.far[0].before(e)) {
		src, e = srcFar, &k.far[0]
	}
	return src, e
}

// popNext removes and returns the event peekNext chose.
func (k *Kernel) popNext(src int) event {
	switch src {
	case srcCurr:
		return k.curr.pop()
	case srcNext:
		return k.next.pop()
	default:
		return k.far.popMin()
	}
}

// advanceTo moves simulated time forward to t, re-anchoring the FIFO
// lanes. Both lanes are empty whenever time jumps by two or more ticks
// (their events would otherwise have fired first), so only the
// one-tick step has lane state to rotate.
func (k *Kernel) advanceTo(t Tick) {
	if t == k.now+1 {
		// curr is empty (its events fire before any later tick), so the
		// next-tick lane becomes the current lane and curr's spare
		// buffer is recycled as the new next-tick lane.
		k.curr, k.next = k.next, k.curr
	}
	k.now = t
}

// Run executes events in order until the queue drains, the horizon is
// passed, or Stop is called. It returns the tick at which it stopped.
// A pre-set stop flag (a Stop issued outside any Run, e.g. by a
// checker during drain or setup) makes Run return immediately.
func (k *Kernel) Run(until Tick) Tick {
	if k.chooser != nil {
		return k.runChoose(until)
	}
	if len(k.enabled) > 0 {
		panic("sim: Run with a drained enabled set but no chooser (choose-mode snapshot restored into a chooser-less kernel)")
	}
	for !k.stopped {
		src, head := k.peekNext()
		if src == srcNone || head.when > until {
			break
		}
		e := k.popNext(src)
		if e.when > k.now {
			k.advanceTo(e.when)
		}
		k.firePollers()
		k.executed++
		e.fn()
	}
	return k.now
}

// RunUntilIdle executes events until no work remains or Stop is called.
func (k *Kernel) RunUntilIdle() Tick { return k.Run(MaxTick) }

func (k *Kernel) firePollers() {
	if len(k.pollers) == 0 || k.now < k.pollNext {
		return
	}
	next := MaxTick
	for i := range k.pollers {
		p := &k.pollers[i]
		if k.now >= p.next {
			p.next = k.now + p.period
			p.fn()
		}
		if p.next < next {
			next = p.next
		}
	}
	k.pollNext = next
}

// Snapshot captures the kernel's complete scheduling state — pending
// events (including their closures), current tick, sequence counter,
// executed count, stop flag, and pollers — so a later Restore resumes
// the simulation from exactly this point.
//
// Closures are captured by reference: an event's fn still points at
// whatever component state it closed over. Restoring into the *same*
// object graph is therefore only sound when those components are
// restored alongside (see the harness checkpoint machinery); the
// kernel itself only promises to replay the identical event sequence.
type KernelSnapshot struct {
	curr, next []event // normalized oldest-first
	far        []event // heap-ordered, as stored
	enabled    []event // drained choice-point set, seq order (chooser.go)
	now        Tick
	seq        uint64
	executed   uint64
	stopped    bool
	pollers    []poller
	pollNext   Tick
}

// appendTo appends f's events to dst, oldest first.
func (f *eventFIFO) appendTo(dst []event) []event {
	for i := 0; i < f.n; i++ {
		dst = append(dst, f.buf[(f.head+i)&(len(f.buf)-1)])
	}
	return dst
}

// restoreFIFO replaces f's contents with the snapshot's events,
// keeping f's warmed-up ring capacity.
func (f *eventFIFO) restoreFrom(events []event) {
	f.reset()
	for _, e := range events {
		f.push(e)
	}
}

// Snapshot captures the full scheduling state. The returned snapshot
// shares no mutable storage with the kernel: Restore may be called any
// number of times, before or after further simulation.
func (k *Kernel) Snapshot() *KernelSnapshot { return k.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling s, a snapshot the caller knows is
// dead (nil allocates).
func (k *Kernel) SnapshotInto(s *KernelSnapshot) *KernelSnapshot {
	if s == nil {
		s = &KernelSnapshot{}
	}
	s.curr = k.curr.appendTo(s.curr[:0])
	s.next = k.next.appendTo(s.next[:0])
	s.far = append(s.far[:0], k.far...)
	s.enabled = append(s.enabled[:0], k.enabled...)
	s.now, s.seq, s.executed = k.now, k.seq, k.executed
	s.stopped = k.stopped
	s.pollers = append(s.pollers[:0], k.pollers...)
	s.pollNext = k.pollNext
	return s
}

// Restore rewinds the kernel to the snapshot's state. The attached
// tracer is deliberately not part of the snapshot — the trace ring has
// its own Snapshot/Restore and is owned by the harness.
func (k *Kernel) Restore(s *KernelSnapshot) {
	k.curr.restoreFrom(s.curr)
	k.next.restoreFrom(s.next)
	for i := range k.far {
		k.far[i].fn = nil
	}
	// The saved slice is already heap-ordered, so copying it back
	// verbatim re-establishes the heap invariant.
	k.far = append(k.far[:0], s.far...)
	for i := range k.enabled {
		k.enabled[i].fn = nil
	}
	k.enabled = append(k.enabled[:0], s.enabled...)
	k.now, k.seq, k.executed = s.now, s.seq, s.executed
	k.stopped = s.stopped
	k.pollers = append(k.pollers[:0], s.pollers...)
	k.pollNext = s.pollNext
}

// SetTracer attaches ring as the kernel's execution trace (nil, or a
// zero-capacity ring, disables tracing). The kernel stamps entries
// with its current tick; components record through Trace.
func (k *Kernel) SetTracer(r *trace.Ring) { k.tracer = r }

// Tracer returns the attached trace ring, which may be nil.
func (k *Kernel) Tracer() *trace.Ring { return k.tracer }

// Tracing reports whether trace entries are being recorded. Components
// check it before building labels so tracing is free when disabled.
// The nil check is explicit — like Trace — rather than delegated to a
// method call through a possibly-nil receiver.
func (k *Kernel) Tracing() bool { return k.tracer != nil && k.tracer.Enabled() }

// Trace records one event at the current tick. It is a no-op without
// an enabled tracer.
func (k *Kernel) Trace(component, label string, addr uint64) {
	if k.tracer == nil {
		return
	}
	k.tracer.Append(uint64(k.now), component, label, addr)
}
