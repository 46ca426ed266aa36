// Package sim provides the discrete-event simulation kernel underlying
// the whole memory-system model.
//
// It plays the role of gem5's event queue: components schedule closures
// at future ticks and the kernel executes them in deterministic order.
// Events at the same tick fire in scheduling order (stable FIFO
// tie-break), which is what makes whole simulations bit-reproducible
// from a seed.
//
// Pending events live in one structure built for the model's latencies
// (DESIGN §9): a slab of events threaded into a calendar wheel of
// wheelSize per-tick lists. Every latency the model schedules in volume
// is far below the wheel's horizon, so a schedule is take-a-slot and
// link-at-the-tail, a pop is unlink-the-head, and a bucket is in
// scheduling order by construction. The rare event beyond the horizon
// waits in a 4-ary min-heap of (tick, slot) pairs and moves into its
// bucket when time comes within wheelSize ticks of it. Nothing on the
// steady-state path allocates (TestEventLoopZeroAllocs).
package sim

import (
	"fmt"
	"math/bits"

	"drftest/internal/trace"
)

// Tick is the simulated time unit. One tick is one clock cycle of the
// memory system; latencies throughout the model are expressed in ticks.
type Tick uint64

// MaxTick is the largest representable tick, used as an "infinite"
// horizon for Run.
const MaxTick = Tick(^uint64(0))

// MaxDelay bounds every delay a configuration sets — a link, memory,
// heartbeat or bug window — in ticks: far above any real one (DRAM is
// 100), far below where now + delay, or a jitter window + 1, wraps and
// an event lands in the past. Each config's Validate holds its delay
// fields to it.
const MaxDelay = Tick(1 << 20)

// wheelSize is the wheel's horizon in ticks, a power of two: the
// smallest above the model's longest common latency. Counted over every
// schedule of every benchmark workload the delays are 0, 1, 3, 4, 8,
// 9–16 (a jittered link), 50 and 100 (DRAM) — 20 is the model's other
// constant — and only the tester's 5 000-tick heartbeat and the host
// driver's 400-tick poll lie beyond: 0.00–0.56 % of a workload's
// schedules (DESIGN §9 has the table; TestHorizonCoversModelLatencies
// holds each shipped shape to 1 %).
const (
	wheelSize = 128
	wheelMask = wheelSize - 1
)

// event is one scheduled closure, held by value in the kernel's slab
// and named by its slot index everywhere else: 32 bytes, two to a cache
// line. Its tick is the bucket it hangs in (or its farEvent's). tag is
// the event's schedule-exploration identity (unit + line footprint, see
// chooser.go); it is zero for events scheduled through plain Schedule
// and never affects the default event loop.
type event struct {
	seq  uint64 // stable tie-break for same-tick events
	tag  uint64
	fn   func()
	next int32 // next slot of this event's bucket, or of the free list
}

// farEvent is an overflow-heap entry: a slot and the tick it is due.
type farEvent struct {
	when Tick
	slot int32
}

// before is the kernel's total order: tick, then schedule order.
func (k *Kernel) before(a, b farEvent) bool {
	return a.when < b.when || (a.when == b.when && k.slab[a.slot].seq < k.slab[b.slot].seq)
}

// bucket is one tick's pending events: a list through event.next, in
// scheduling order. Slot 0 is the nil link, so head == 0 means empty.
type bucket struct{ head, tail int32 }

// poller is one periodic service with its own cadence.
type poller struct {
	period Tick
	next   Tick
	fn     func()
}

// state is everything a cut copies: Snapshot, Restore and Reset move
// or clear exactly this struct.
//
// Invariant: for now ≤ t < now+wheelSize, bucket t&wheelMask lists
// exactly the events due at t, lowest seq first, and its occ bit is set
// iff it is non-empty; far holds the events due at now+wheelSize or
// later. advanceTo keeps it as time moves.
type state struct {
	slab    []event                // every event slot; slot 0 is never used
	free    int32                  // LIFO list of released slots
	wheel   [wheelSize]bucket      // one list per tick of the horizon
	occ     [wheelSize / 64]uint64 // bit s: wheel[s] is non-empty (nextTick scans two words)
	far     []farEvent             // 4-ary min-heap by (when, seq) of the events beyond the horizon
	pending int
	beyond  uint64 // schedules that went to far

	now      Tick
	seq      uint64
	executed uint64
	stopped  bool
	pollers  []poller
	pollNext Tick // min over pollers' next-due ticks
}

// copyFrom makes d a copy of s that shares no storage with it, reusing
// d's arrays. Of the wheel it moves only the buckets s occupies and
// zeroes the ones only d does — which is also all it reads of s's — so
// a cut costs what is pending, and a recycled snapshot whose occ no
// longer describes its wheel still restores exactly. Closures d held in
// slots past s's are released for GC.
func (d *state) copyFrom(s *state) {
	if len(d.slab) > len(s.slab) {
		clear(d.slab[len(s.slab):])
	}
	d.slab = append(d.slab[:0], s.slab...)
	d.far = append(d.far[:0], s.far...)
	d.pollers = append(d.pollers[:0], s.pollers...)
	for w, live := range s.occ {
		for m := live | d.occ[w]; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if live>>b&1 != 0 {
				d.wheel[w<<6+b] = s.wheel[w<<6+b]
			} else {
				d.wheel[w<<6+b] = bucket{}
			}
		}
	}
	d.occ = s.occ
	d.free, d.pending, d.beyond = s.free, s.pending, s.beyond
	d.now, d.seq, d.executed = s.now, s.seq, s.executed
	d.stopped, d.pollNext = s.stopped, s.pollNext
}

// idle is the state of a just-constructed kernel.
var idle state

// Kernel is a single-threaded discrete-event scheduler. The zero value
// is ready to use.
type Kernel struct {
	state
	tracer *trace.Ring

	// Schedule choice points (chooser.go). candBuf, candPrev and
	// unitSeen are buildCandidates' per-call scratch.
	chooser  Chooser
	unitSeq  uint32
	candBuf  []Enabled
	candPrev []int32
	unitSeen []uint64
}

// NewKernel returns a fresh kernel at tick zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Tick { return k.now }

// Reset returns the kernel to its just-constructed state — tick zero,
// no pending events, no pollers, stop flag cleared — while keeping the
// warmed-up slab and any attached tracer. Pending events are dropped
// (their closures released for GC): a campaign reusing one system
// across runs must not let a previous run's in-flight events fire into
// the next one, so components holding state referenced by those events
// (controllers, testers) must be reset alongside.
func (k *Kernel) Reset() { k.copyFrom(&idle) }

// Executed returns the number of events executed so far. It is the
// kernel-level measure of simulation work and backs the paper's
// "simulation runtime" comparisons.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of scheduled, not-yet-fired events.
func (k *Kernel) Pending() int { return k.pending }

// BeyondHorizon returns how many schedules so far were wheelSize or
// more ticks out and paid for the overflow heap.
func (k *Kernel) BeyondHorizon() uint64 { return k.beyond }

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
	when := k.now + delay
	if when < k.now {
		panic(fmt.Sprintf("sim: Schedule past the end of time (now=%d delay=%d)", k.now, delay))
	}
	i := k.free
	if i != 0 {
		k.free = k.slab[i].next
	} else {
		if cap(k.slab) == 0 {
			k.slab = make([]event, 0, 64) // a tester run's steady depth is 30–50
		}
		i = int32(max(len(k.slab), 1)) // slot 0 is the nil link
		k.slab = append(k.slab[:i], event{})
	}
	k.seq++
	k.slab[i] = event{seq: k.seq, tag: tag, fn: fn}
	k.pending++
	if delay < wheelSize {
		k.link(i, when)
		return
	}
	k.beyond++
	k.far = append(k.far, farEvent{when, i})
	k.farUp(len(k.far) - 1)
}

// link appends slot i to the bucket of tick when, which must be within
// the horizon.
func (k *Kernel) link(i int32, when Tick) {
	s := when & wheelMask
	b := &k.wheel[s]
	if b.tail == 0 {
		b.head = i
		k.occ[s>>6] |= 1 << (s & 63)
	} else {
		k.slab[b.tail].next = i
	}
	b.tail = i
}

// unlink removes the current tick's event that follows slot prev (0:
// the bucket's head), releases its slot and returns its closure.
func (k *Kernel) unlink(prev int32) func() {
	s := k.now & wheelMask
	b := &k.wheel[s]
	at := &b.head
	if prev != 0 {
		at = &k.slab[prev].next
	}
	i := *at
	e := &k.slab[i]
	*at = e.next
	if e.next == 0 {
		b.tail = prev
		if prev == 0 {
			k.occ[s>>6] &^= 1 << (s & 63)
		}
	}
	fn := e.fn
	e.fn = nil // release the closure for GC
	e.next, k.free = k.free, i
	k.pending--
	return fn
}

// farUp and farDown restore the overflow heap's order around index i.
func (k *Kernel) farUp(i int) {
	h, x := k.far, k.far[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(x, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

func (k *Kernel) farDown(i int) {
	h, x := k.far, k.far[i]
	for {
		min := 4*i + 1
		if min >= len(h) {
			break
		}
		for c := min + 1; c < len(h) && c < 4*i+5; c++ {
			if k.before(h[c], h[min]) {
				min = c
			}
		}
		if !k.before(h[min], x) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = x
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

// nextTick returns the earliest tick after now with a pending event:
// the first occupied bucket in wheel order from now, else the overflow
// heap's minimum. The current bucket must be empty.
func (k *Kernel) nextTick() (t Tick, ok bool) {
	if k.wheel[(k.now+1)&wheelMask].head != 0 {
		return k.now + 1, true
	}
	s := uint(k.now) & wheelMask
	w, b := s>>6, s&63
	if m := k.occ[w] >> b; m != 0 {
		return k.now + Tick(bits.TrailingZeros64(m)), true
	}
	if m := k.occ[w^1]; m != 0 {
		return k.now + Tick(64-b+uint(bits.TrailingZeros64(m))), true
	}
	if m := k.occ[w]; m != 0 { // what is left of it is below bit b
		return k.now + Tick(wheelSize-b+uint(bits.TrailingZeros64(m))), true
	}
	if len(k.far) > 0 {
		return k.far[0].when, true
	}
	return 0, false
}

// advanceTo moves simulated time forward to t and pulls every overflow
// event that t's horizon now covers into its bucket. Such an event was
// scheduled at least wheelSize ticks before it is due — before
// anything its bucket can still receive — and the heap yields a tick's
// events lowest seq first, so appending keeps the bucket in scheduling
// order and a pop never has to merge.
func (k *Kernel) advanceTo(t Tick) {
	k.now = t
	for len(k.far) > 0 && k.far[0].when-t < wheelSize {
		e, n := k.far[0], len(k.far)-1
		k.far[0] = k.far[n]
		k.far = k.far[:n]
		if n > 0 {
			k.farDown(0)
		}
		k.link(e.slot, e.when)
	}
}

// Run executes events in order until the queue drains, the horizon is
// passed, or Stop is called. It returns the tick at which it stopped.
// A pre-set stop flag (a Stop issued outside any Run, e.g. by a
// checker during drain or setup) makes Run return immediately.
//
// With a Chooser attached (chooser.go) the current bucket is the
// enabled set and the chooser picks which of its per-unit heads fires;
// everything else is the same loop. All loop state lives in kernel
// fields, so a Snapshot taken from inside Choose is a resumable cut.
func (k *Kernel) Run(until Tick) Tick {
	if until < k.now {
		return k.now
	}
	for !k.stopped {
		if k.wheel[k.now&wheelMask].head == 0 {
			t, ok := k.nextTick()
			if !ok || t > until {
				break
			}
			k.advanceTo(t)
		}
		if len(k.pollers) != 0 && k.now >= k.pollNext {
			k.firePollers()
		}
		prev := int32(0)
		if k.chooser != nil {
			if prev = k.choose(); k.stopped {
				break
			}
		}
		fn := k.unlink(prev)
		k.executed++
		fn()
	}
	return k.now
}

// RunUntilIdle executes events until no work remains or Stop is called.
func (k *Kernel) RunUntilIdle() Tick { return k.Run(MaxTick) }

// firePollers runs the pollers that are due; Run calls it once the
// earliest of them is.
func (k *Kernel) firePollers() {
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

// KernelSnapshot captures the kernel's complete scheduling state —
// pending events (including their closures), current tick, sequence
// counter, executed count, stop flag, and pollers — so a later Restore
// resumes the simulation from exactly this point.
//
// Closures are captured by reference: an event's fn still points at
// whatever component state it closed over. Restoring into the *same*
// object graph is therefore only sound when those components are
// restored alongside (see the harness checkpoint machinery); the
// kernel itself only promises to replay the identical event sequence.
type KernelSnapshot struct{ state }

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
	s.copyFrom(&k.state)
	return s
}

// Restore rewinds the kernel to the snapshot's state. The attached
// tracer and chooser are deliberately not part of the snapshot — the
// trace ring has its own Snapshot/Restore and is owned by the harness —
// and a cut taken under a chooser resumes under any other, or none.
func (k *Kernel) Restore(s *KernelSnapshot) { k.copyFrom(&s.state) }

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
