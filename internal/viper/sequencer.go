package viper

import (
	"fmt"

	"drftest/internal/mem"
	"drftest/internal/sim"
	"drftest/internal/stats"
	"drftest/internal/table"
)

// Sequencer is the per-CU port between a core (the tester or a GPU
// core model) and its TCP. It implements the consistency-model half of
// VIPER's synchronization operations:
//
//   - store-release: held until every earlier write-through of the
//     issuing thread has been acknowledged (globally performed);
//   - load-acquire: the CU's L1 is flash-invalidated when the response
//     is delivered, so later loads cannot see pre-acquire data.
//
// It also tracks all outstanding requests with their issue ticks, which
// is what the tester's forward-progress (deadlock) checker scans.
type Sequencer struct {
	seqState
	k           *sim.Kernel
	cu          int
	tcp         *TCP
	client      mem.Requestor
	respLatency sim.Tick
	bugs        BugSet

	// deliverFn drains respQ; scratch is the Response it hands the
	// client, valid only during that call.
	deliverFn func()
	scratch   mem.Response

	// unit is the sequencer's schedule-exploration ordering domain: a
	// chooser may interleave different sequencers' deliveries but never
	// reorder one sequencer's own (the respQ FIFO pairing above).
	unit uint32

	lat *stats.LatencySet
}

// seqState is a sequencer's run state: a cut copies it, a reset clears
// it (the latency histograms are cut by the System). Request pointers
// are kept by identity: each points at its issuer's request, which the
// issuer's own cut restores in place (a tester lane's request is
// copied with the lane).
type seqState struct {
	pendingWT    table.Table[int, int] // thread → in-flight write-throughs
	heldReleases waitList[int, *mem.Request]
	outstanding  table.Table[uint64, *mem.Request]

	// Completed requests awaiting delivery, drained FIFO by deliverFn.
	// The response latency is a constant, so delivery order equals
	// completion order and one pre-bound closure serves every response —
	// the steady-state respond path allocates nothing.
	respQ    []pendingResp
	respHead int

	issued, completed uint64
	// skippedInvalidates counts the acquires whose flash-invalidate the
	// StaleAcquire bug skipped.
	skippedInvalidates uint64
}

// copyFrom makes d hold s's state in d's own storage, the response
// queue from its head. Saving a cut, restoring one and resetting (from
// the zero state) are this one copy.
func (d *seqState) copyFrom(s *seqState) {
	d.pendingWT.CopyFrom(&s.pendingWT)
	d.heldReleases.copyFrom(&s.heldReleases)
	d.outstanding.CopyFrom(&s.outstanding)
	clear(d.respQ)
	d.respQ = append(d.respQ[:0], s.respQ[s.respHead:]...)
	d.respHead = 0
	d.issued, d.completed = s.issued, s.completed
	d.skippedInvalidates = s.skippedInvalidates
}

func newSequencer(k *sim.Kernel, cu int, tcp *TCP, respLatency sim.Tick, bugs BugSet) *Sequencer {
	s := &Sequencer{
		k:           k,
		cu:          cu,
		tcp:         tcp,
		respLatency: respLatency,
		bugs:        bugs,
		lat:         stats.NewLatencySet(fmt.Sprintf("cu%d", cu)),
		unit:        k.NewUnit(),
	}
	s.deliverFn = s.deliverNext
	tcp.seq = s
	return s
}

// pendingResp is one completed request queued for core delivery.
type pendingResp struct {
	req  *mem.Request
	data uint32
}

// SetClient wires the core-side response sink. It must be called
// before the first Issue.
func (s *Sequencer) SetClient(c mem.Requestor) { s.client = c }

// CU returns the sequencer's compute unit ID.
func (s *Sequencer) CU() int { return s.cu }

// Issue accepts one core request. Requests complete asynchronously via
// the client's HandleResponse. The memory system holds req from Issue
// until its response is delivered and reads nothing of it after: once
// HandleResponse returns, the client may reuse it for its next request.
func (s *Sequencer) Issue(req *mem.Request) {
	if s.client == nil {
		panic("viper: Issue before SetClient")
	}
	slot := s.outstanding.Slot(req.ID)
	if *slot != nil {
		panic(fmt.Sprintf("viper: duplicate request ID %d", req.ID))
	}
	req.CUID = s.cu
	req.IssueTick = uint64(s.k.Now())
	*slot = req
	s.issued++

	if req.Release && s.pendingWT.Ptr(req.ThreadID) != nil {
		s.heldReleases.push(req.ThreadID, req)
		return
	}
	s.tcp.CoreRequest(req)
}

// respond delivers a completed request back to the core after the L1
// response latency, applying acquire semantics at delivery time.
//
// The delivery event advertises the response's line footprint to an
// attached schedule chooser — except for acquires (delivery flash-
// invalidates the whole L1) and releases (retirement updates every
// claimed variable's reference state), whose effects are not confined
// to one line and so must stay dependent with everything.
func (s *Sequencer) respond(req *mem.Request, data uint32) {
	s.respQ = append(s.respQ, pendingResp{req: req, data: data})
	tag := sim.MakeUnitTag(sim.CompSequencer, s.unit)
	if !req.Acquire && !req.Release {
		tag = sim.MakeLineTag(sim.CompSequencer, s.unit, uint64(mem.LineAddr(req.Addr, s.tcp.lineSize())))
	}
	s.k.ScheduleTagged(s.respLatency, tag, s.deliverFn)
}

// deliverNext completes the oldest queued response. FIFO matching is
// sound because every respond schedules deliverFn exactly respLatency
// ticks out and simulated time never runs backwards, so deliveries fire
// in queue order. The Response handed to the client is a reused scratch
// value, valid only for the duration of the HandleResponse call (see
// mem.Requestor).
func (s *Sequencer) deliverNext() {
	p := s.respQ[s.respHead]
	s.respQ[s.respHead] = pendingResp{}
	s.respHead++
	if s.respHead == len(s.respQ) {
		s.respQ = s.respQ[:0]
		s.respHead = 0
	}
	req := p.req
	if req.Acquire {
		if s.bugs.StaleAcquire {
			s.skippedInvalidates++
		} else {
			s.tcp.FlashInvalidate()
		}
	}
	s.outstanding.Delete(req.ID)
	s.completed++
	s.recordLatency(req, uint64(s.k.Now())-req.IssueTick)
	s.scratch = mem.Response{Req: req, Data: p.data, Tick: uint64(s.k.Now())}
	s.client.HandleResponse(&s.scratch)
}

// noteWriteThrough records that thread tid gained one in-flight
// write-through.
func (s *Sequencer) noteWriteThrough(tid int) {
	*s.pendingWT.Slot(tid)++
}

// writeCompleted records a write-through acknowledgement for thread tid
// and, when the thread fully drains, launches any held store-release.
func (s *Sequencer) writeCompleted(tid int) {
	n := s.pendingWT.Ptr(tid)
	if n == nil {
		panic(fmt.Sprintf("viper: write completion underflow for thread %d", tid))
	}
	if *n--; *n > 0 {
		return
	}
	s.pendingWT.Delete(tid)
	held := s.heldReleases.take(tid)
	for _, r := range held {
		s.tcp.CoreRequest(r)
	}
	s.heldReleases.recycle(held)
}

// ForEachOutstanding visits every request that has been issued but not
// yet answered (including held releases and protocol-stalled requests).
func (s *Sequencer) ForEachOutstanding(visit func(*mem.Request)) {
	s.outstanding.Each(func(_ uint64, r **mem.Request) { visit(*r) })
}

// OutstandingCount returns the number of in-flight requests.
func (s *Sequencer) OutstandingCount() int { return s.outstanding.Len() }

// Stats returns (issued, completed) request counts.
func (s *Sequencer) Stats() (issued, completed uint64) { return s.issued, s.completed }

// SkippedInvalidates returns how many acquires the StaleAcquire bug
// delivered without flash-invalidating the L1.
func (s *Sequencer) SkippedInvalidates() uint64 { return s.skippedInvalidates }

func (s *Sequencer) recordLatency(req *mem.Request, lat uint64) {
	switch {
	case req.Acquire:
		s.lat.Acquire.Record(lat)
	case req.Release:
		s.lat.Release.Record(lat)
	case req.Op == mem.OpAtomic:
		s.lat.Atomic.Record(lat)
	case req.Op == mem.OpStore:
		s.lat.Store.Record(lat)
	default:
		s.lat.Load.Record(lat)
	}
}

// Latencies exposes the sequencer's per-class latency histograms.
func (s *Sequencer) Latencies() *stats.LatencySet { return s.lat }
