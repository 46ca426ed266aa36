// Package memctrl models the memory controller and DRAM behind the
// coherence stack: a functional backing store fronted by a
// fixed-latency, rate-limited service queue.
//
// Fidelity here is deliberately modest — the paper's methodology tests
// the coherence protocol, not DRAM timing — but the controller must (a)
// be the global ordering point for line data, (b) honor per-byte write
// masks so write-through merging is observable, and (c) introduce
// queuing delay so request lifetimes vary and transient protocol states
// stay occupied.
//
// The controller sits on every miss and write-through path, so its
// steady state is allocation- and copy-free: requests are written once
// into a power-of-two ring and read in place, completion callbacks are
// pre-bound and carry an opaque ctx instead of closing over per-request
// state, and line payloads travel as refcounted *mem.Line handles —
// WriteLine takes ownership of the caller's handle rather than copying
// its bytes, and ReadLine hands the callee a pool-backed handle it then
// owns.
package memctrl

import (
	"fmt"
	"slices"

	"drftest/internal/mem"
	"drftest/internal/sim"
)

// Config sets the controller's timing.
type Config struct {
	// AccessLatency is the fixed ticks from dequeue to completion.
	AccessLatency sim.Tick
	// ServicePeriod is the minimum ticks between dequeues (inverse
	// bandwidth). Zero means unlimited bandwidth.
	ServicePeriod sim.Tick
}

// Validate reports, naming the field, a delay past sim.MaxDelay.
func (c Config) Validate() error {
	if c.AccessLatency > sim.MaxDelay {
		return fmt.Errorf("memctrl: AccessLatency %d exceeds the admission limit of %d", c.AccessLatency, sim.MaxDelay)
	}
	if c.ServicePeriod > sim.MaxDelay {
		return fmt.Errorf("memctrl: ServicePeriod %d exceeds the admission limit of %d", c.ServicePeriod, sim.MaxDelay)
	}
	return nil
}

// DefaultConfig mimics a ~100-cycle DRAM with one request per 4 cycles.
func DefaultConfig() Config {
	return Config{AccessLatency: 100, ServicePeriod: 4}
}

// request is one queued DRAM command. Exactly one of the on* callbacks
// is set, matching kind; the typed fields plus the opaque ctx avoid a
// per-request adapter closure.
type request struct {
	kind    kind
	line    mem.Addr
	size    int
	payload *mem.Line // write payload; the request owns one reference
	addr    mem.Addr  // word address for atomics
	delta   uint32

	onRead   func(data *mem.Line, ctx any)
	onWrite  func(ctx any)
	onAtomic func(old uint32, nack bool, ctx any)
	ctx      any
}

type kind uint8

const (
	kindRead kind = iota
	kindWrite
	kindAtomic
)

// ring is a growable power-of-two FIFO of requests with a service
// cursor between its ends: a request is written once at tail, waits in
// [next, tail), is in flight in [head, next) and is read in place until
// it retires at head. The backing array doubles only when the live
// window outgrows it, so steady state runs allocation- and copy-free at
// a footprint bounded by the peak depth.
type ring struct {
	slots            []request // len is a power of two (or zero)
	head, next, tail uint64    // head <= next <= tail
}

// queued is the number of requests waiting for service.
func (q *ring) queued() int { return int(q.tail - q.next) }

func (q *ring) at(i uint64) *request { return &q.slots[i&uint64(len(q.slots)-1)] }

// push appends a zeroed slot (retire, reset and grow leave no other
// kind) for the caller to fill field by field. The pointer dies at the
// next push.
func (q *ring) push() *request {
	if int(q.tail-q.head) == len(q.slots) {
		q.grow()
	}
	q.tail++
	return q.at(q.tail - 1)
}

// serve moves the oldest waiting request in flight (caller must ensure
// one is waiting).
func (q *ring) serve() *request {
	q.next++
	return q.at(q.next - 1)
}

// retire drops the oldest in-flight request, clearing its slot so it
// does not pin a payload or ctx object.
func (q *ring) retire() {
	*q.at(q.head) = request{}
	q.head++
}

func (q *ring) grow() {
	n := len(q.slots) * 2
	if n == 0 {
		n = 64
	}
	slots := make([]request, n)
	for i, h := 0, q.head; h != q.tail; i, h = i+1, h+1 {
		slots[i] = *q.at(h)
	}
	q.next -= q.head
	q.tail -= q.head
	q.head = 0
	q.slots = slots
}

// reset empties the ring, clearing the live window's slots so dropped
// requests do not pin payloads or ctx objects; retire, grow and reset
// keep every other slot zero already.
func (q *ring) reset() {
	for h := q.head; h != q.tail; h++ {
		*q.at(h) = request{}
	}
	q.head, q.next, q.tail = 0, 0, 0
}

// save refills dst with the live window in FIFO order, in-flight
// requests first, and returns how many of them are in flight.
func (q *ring) save(dst []request) ([]request, int) {
	dst = slices.Grow(dst[:0], int(q.tail-q.head))
	for h := q.head; h != q.tail; h++ {
		dst = append(dst, *q.at(h))
	}
	return dst, int(q.next - q.head)
}

// load replaces the ring's contents with the given FIFO window, the
// first inflight of it in flight.
func (q *ring) load(reqs []request, inflight int) {
	q.reset()
	for i := range reqs {
		*q.push() = reqs[i]
	}
	q.next = uint64(inflight)
}

// Controller services line reads, masked line writes and word atomics
// against a backing Store.
type Controller struct {
	k     *sim.Kernel
	cfg   Config
	store *mem.Store
	pool  *mem.LinePool

	// queue is a power-of-two ring: slots are reused as head laps the
	// array, so the footprint tracks the peak queue depth instead of
	// the total request count (an append-only head-indexed queue never
	// shrinks while at least one request is always pending). It holds
	// the waiting requests and, behind its service cursor, the ones
	// awaiting completion, which completeFn retires FIFO: every service
	// schedules completion exactly AccessLatency ticks out and services
	// happen at nondecreasing ticks, so completions fire in service
	// order.
	queue ring
	busy  bool

	serviceFn  func()
	completeFn func()

	// unit is the controller's schedule-exploration ordering domain:
	// service events take the oldest waiting request and completion
	// events the oldest in-flight one, so both must fire in schedule
	// order for the event→request pairing to hold. Sharing one unit
	// FIFO-locks them (see sim/chooser.go), which is what makes the
	// line tags below sound: the request an event will process is
	// already determined when the event is scheduled.
	unit uint32

	// stats
	reads, writes, atomics uint64
	peakQueue              int
}

// New creates a controller on kernel k over backing store st. Line
// payloads for read fills are drawn from pool; pass the owning
// system's shared pool so handles can flow across components (and so
// one pool snapshot covers every in-flight payload), or nil to give
// the controller a private pool.
func New(k *sim.Kernel, cfg Config, st *mem.Store, pool *mem.LinePool) *Controller {
	if pool == nil {
		pool = mem.NewLinePool(64)
	}
	c := &Controller{k: k, cfg: cfg, store: st, pool: pool, unit: k.NewUnit()}
	c.serviceFn = c.service
	c.completeFn = c.complete
	return c
}

// Store exposes the backing memory (used to seed initial values and by
// end-of-run consistency audits).
func (c *Controller) Store() *mem.Store { return c.store }

// Pool exposes the controller's line pool (the system's shared pool
// when one was supplied to New).
func (c *Controller) Pool() *mem.LinePool { return c.pool }

// Reset drops all queued and in-flight requests, zeroes the stats, and
// empties the backing store. The kernel must be reset alongside: the
// pending service/complete events reference the dropped requests, and
// busy=false assumes no serviceFn remains scheduled. Dropped write
// payloads keep their references — their holders are being reset by
// identity alongside (pool restore or caller reset reclaims them), so
// releasing here would double-free.
func (c *Controller) Reset() {
	c.queue.reset()
	c.busy = false
	c.reads, c.writes, c.atomics, c.peakQueue = 0, 0, 0, 0
	c.store.Reset()
}

// ReadLine fetches size bytes at line and calls done with a pool-owned
// data handle. Ownership of the handle transfers to the callee, which
// must Release it (after at most retaining it into longer-lived
// state); nothing is copied on the way.
func (c *Controller) ReadLine(line mem.Addr, size int, done func(data *mem.Line, ctx any), ctx any) {
	r := c.queue.push()
	r.kind, r.line, r.size, r.onRead, r.ctx = kindRead, line, size, done, ctx
	c.enqueued(r)
}

// WriteLine writes payload (data under its mask, if any) at line and
// calls done when the write is globally performed. The controller
// takes ownership of one reference to payload: callers that keep using
// the line (e.g. a write-combining buffer) retain their own reference,
// and copy-on-write isolates the queued bytes if they then mutate it.
func (c *Controller) WriteLine(line mem.Addr, payload *mem.Line, done func(ctx any), ctx any) {
	r := c.queue.push()
	r.kind, r.line, r.payload, r.onWrite, r.ctx = kindWrite, line, payload, done, ctx
	c.enqueued(r)
}

// Atomic performs a fetch-add at word address addr and calls done with
// the old value. Atomicity is inherent: the controller services one
// request at a time against the functional store. The controller never
// NACKs; the bool matches the shared backend callback shape so
// adapters stay allocation-free.
func (c *Controller) Atomic(addr mem.Addr, delta uint32, done func(old uint32, nack bool, ctx any), ctx any) {
	r := c.queue.push()
	r.kind, r.addr, r.delta, r.onAtomic, r.ctx = kindAtomic, addr, delta, done, ctx
	c.enqueued(r)
}

// enqueued follows the push and filling of r.
func (c *Controller) enqueued(r *request) {
	if n := c.queue.queued(); n > c.peakQueue {
		c.peakQueue = n
	}
	if !c.busy {
		c.busy = true
		// The queue was empty, so the service event will take r itself:
		// its footprint is r's line.
		c.k.ScheduleTagged(0, sim.MakeLineTag(sim.CompMemCtrl, c.unit, uint64(r.line)), c.serviceFn)
	}
}

func (c *Controller) service() {
	if c.queue.queued() == 0 {
		c.busy = false
		return
	}
	r := c.queue.serve()
	// Completions retire the in-flight requests FIFO and the unit keeps
	// them in schedule order, so this completion retires exactly r.
	c.k.ScheduleTagged(c.cfg.AccessLatency, sim.MakeLineTag(sim.CompMemCtrl, c.unit, uint64(r.line)), c.completeFn)
	period := c.cfg.ServicePeriod
	if period == 0 {
		period = 1
	}
	// The next service event takes whatever heads the queue when it
	// fires. Pushes only append and no other service event is pending
	// for this unit, so a non-empty queue pins that request now; an
	// empty queue means the footprint is unknown (the event may idle or
	// take a not-yet-enqueued request), so stay conservatively untagged
	// on the line while keeping the unit's FIFO lock.
	tag := sim.MakeUnitTag(sim.CompMemCtrl, c.unit)
	if c.queue.queued() > 0 {
		tag = sim.MakeLineTag(sim.CompMemCtrl, c.unit, uint64(c.queue.at(c.queue.next).line))
	}
	c.k.ScheduleTagged(period, tag, c.serviceFn)
}

// complete performs the oldest in-flight request, reading it in place.
// Its callback may enqueue (and so grow the ring under r); the slot is
// retired by index afterwards.
func (c *Controller) complete() {
	r := c.queue.at(c.queue.head)
	switch r.kind {
	case kindRead:
		c.reads++
		data := c.pool.Get(r.size)
		c.store.ReadBytes(r.line, data.Data)
		r.onRead(data, r.ctx)
	case kindWrite:
		c.writes++
		p := r.payload
		c.store.WriteBytes(r.line, p.Data, p.Mask())
		p.Release()
		r.onWrite(r.ctx)
	case kindAtomic:
		c.atomics++
		old := c.store.AtomicAdd(r.addr, r.delta)
		r.onAtomic(old, false, r.ctx)
	}
	c.queue.retire()
}

// Stats returns service counters: reads, writes, atomics serviced and the
// peak queue depth.
func (c *Controller) Stats() (reads, writes, atomics uint64, peakQueue int) {
	return c.reads, c.writes, c.atomics, c.peakQueue
}

// Snapshot captures the controller's queues, stats and backing store.
// Queued requests are captured by value, retaining payload handles and
// callback ctx objects by identity: both are restored-in-place by
// their owners (the shared line pool's Snapshot/Restore covers payload
// contents and refcounts; message/TBE pools cover the ctx objects), so
// a mid-run snapshot needs the owning system to snapshot its pools at
// the same cut. Quiescent snapshots hold no requests at all. The
// kernel events referencing serviceFn/completeFn must be snapshotted
// alongside by the owner.
type Snapshot struct {
	queue    []request // FIFO, the first inflight of them in flight
	inflight int
	busy     bool

	reads, writes, atomics uint64
	peakQueue              int

	store *mem.StoreSnapshot
}

// Snapshot captures the controller and its backing store.
func (c *Controller) Snapshot() *Snapshot { return c.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling s, a snapshot of this controller
// the caller knows is dead (nil allocates).
func (c *Controller) SnapshotInto(s *Snapshot) *Snapshot {
	if s == nil {
		s = &Snapshot{}
	}
	s.queue, s.inflight = c.queue.save(s.queue)
	s.busy = c.busy
	s.reads, s.writes, s.atomics, s.peakQueue = c.reads, c.writes, c.atomics, c.peakQueue
	s.store = c.store.SnapshotInto(s.store)
	return s
}

// Restore returns the controller and its backing store to the captured
// state. The kernel must be restored in lockstep (the service/complete
// events must match the restored queues), and the owning system must
// restore its line/message pools at the same cut so the retained
// payload and ctx identities carry the captured contents.
func (c *Controller) Restore(s *Snapshot) {
	c.queue.load(s.queue, s.inflight)
	c.busy = s.busy
	c.reads, c.writes, c.atomics, c.peakQueue = s.reads, s.writes, s.atomics, s.peakQueue
	c.store.Restore(s.store)
}
