// Package network models the on-chip interconnect as Ruby-style
// message buffers: point-to-point links that deliver messages after a
// configurable latency, either in order (virtual channel semantics) or
// with bounded random jitter.
//
// Unordered delivery matters for testing: many coherence bugs only
// appear when two messages race, and the paper's methodology relies on
// the network reordering traffic enough to expose them. Links therefore
// support a jitter window, with all randomness drawn from a
// deterministic per-link stream.
package network

import (
	"drftest/internal/rng"
	"drftest/internal/sim"
)

// pendingMsg is one queued typed delivery: a prebound handler plus its
// argument — the allocation-free alternative to a per-message closure —
// and the tick it is due.
type pendingMsg struct {
	fn  func(any)
	arg any
	at  sim.Tick
}

// Link is a one-way channel between two components.
type Link struct {
	k       *sim.Kernel
	name    string
	latency sim.Tick
	jitter  sim.Tick
	rnd     *rng.PCG

	// SendMsg state: the kernel fires a link's delivery events by tick
	// and then in send order, so one prebound drain closure and a
	// reusable queue kept in that same order serve every typed message.
	// On an ordered link (constant latency) that order is send order and
	// the queue a plain FIFO; jitter makes a send slot in ahead of the
	// few queued messages due after it.
	msgQ      []pendingMsg
	msgHead   int
	deliverFn func()

	// unit is the link's schedule-exploration ordering domain: every
	// delivery event carries it, so a schedule chooser can interleave
	// different links' traffic but never reorder one link against
	// itself — the queue/event pairing above depends on that.
	unit uint32

	sent uint64
}

// NewLink creates an ordered link with fixed latency.
func NewLink(k *sim.Kernel, name string, latency sim.Tick) *Link {
	return NewJitterLink(k, name, latency, 0, nil)
}

// NewJitterLink creates a link whose per-message latency is uniform in
// [latency, latency+jitter]; messages may therefore be reordered.
func NewJitterLink(k *sim.Kernel, name string, latency, jitter sim.Tick, rnd *rng.PCG) *Link {
	l := &Link{k: k, name: name, latency: latency, jitter: jitter, rnd: rnd, unit: k.NewUnit()}
	l.deliverFn = l.deliverNext
	return l
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// SetJitter changes the jitter window of the messages sent from now on
// (a reused system retunes it between reset runs). A link built without
// a random stream cannot become jittered.
func (l *Link) SetJitter(jitter sim.Tick) {
	if jitter > 0 && l.rnd == nil {
		panic("network: SetJitter on a link built without a jitter stream")
	}
	l.jitter = jitter
}

// Sent returns the number of messages sent on the link.
func (l *Link) Sent() uint64 { return l.sent }

// Queued returns the number of typed messages sent and not yet
// delivered.
func (l *Link) Queued() int { return len(l.msgQ) - l.msgHead }

// SendMsg delivers fn(arg) at the far end after the link's latency.
// fn should be a prebound per-destination handler: the message then
// rides the link's reusable queue and nothing is allocated per send.
func (l *Link) SendMsg(fn func(any), arg any) {
	l.sendMsgTagged(sim.MakeUnitTag(sim.CompLink, l.unit), fn, arg)
}

// SendMsgLine is SendMsg for a message whose effect is confined to one
// cache line: the delivery event advertises the line to an attached
// schedule chooser so the explorer's independence relation can commute
// it with deliveries touching disjoint lines. Delivery semantics are
// identical to SendMsg.
func (l *Link) SendMsgLine(fn func(any), arg any, lineAddr uint64) {
	l.sendMsgTagged(sim.MakeLineTag(sim.CompLink, l.unit, lineAddr), fn, arg)
}

func (l *Link) sendMsgTagged(tag uint64, fn func(any), arg any) {
	l.sent++
	d := l.latency
	if l.jitter > 0 {
		d += sim.Tick(l.rnd.Intn(int(l.jitter) + 1))
	}
	// Under steady traffic the queue never empties, so before append
	// would regrow a full array, move the live window down over the
	// delivered prefix once that prefix is at least half the array: the
	// array stops growing at twice the peak depth, and each entry moves
	// at most once per lap.
	if len(l.msgQ) == cap(l.msgQ) && 2*l.msgHead >= len(l.msgQ) {
		n := copy(l.msgQ, l.msgQ[l.msgHead:])
		clear(l.msgQ[n:])
		l.msgQ, l.msgHead = l.msgQ[:n], 0
	}
	// Queue the message behind everything due no later than it is:
	// only messages sent within the last jitter window can be due
	// later, so the walk is short, and none is on an ordered link.
	at := l.k.Now() + d
	i := len(l.msgQ)
	l.msgQ = append(l.msgQ, pendingMsg{})
	for ; i > l.msgHead && l.msgQ[i-1].at > at; i-- {
		l.msgQ[i] = l.msgQ[i-1]
	}
	l.msgQ[i] = pendingMsg{fn: fn, arg: arg, at: at}
	l.k.ScheduleTagged(d, tag, l.deliverFn)
}

// deliverNext completes the queued typed message that is due first.
// Every SendMsg schedules one deliverFn event at its message's tick
// and the kernel fires a link's events by tick, then in send order —
// the queue's order — so the firing event and the head of the queue
// always belong to the same send.
func (l *Link) deliverNext() {
	p := l.msgQ[l.msgHead]
	if p.at != l.k.Now() {
		panic("network: link " + l.name + "'s queue and delivery events desynchronized")
	}
	l.msgQ[l.msgHead] = pendingMsg{}
	l.msgHead++
	if l.msgHead == len(l.msgQ) {
		l.msgQ = l.msgQ[:0]
		l.msgHead = 0
	}
	p.fn(p.arg)
}

// Reset drops queued typed messages and zeroes the traffic counter,
// returning the link to its just-built state. Only valid after the
// owning kernel has been reset (the queued delivery events must
// already be gone, or the queue and the events would desynchronize).
func (l *Link) Reset() {
	clear(l.msgQ)
	l.msgQ = l.msgQ[:0]
	l.msgHead = 0
	l.sent = 0
}

// LinkSnapshot captures a link's queued messages and traffic counter.
// Message arguments are retained by pointer: callers that pool message
// objects must restore those objects' contents themselves (the viper
// system does this via its pool registries). The jitter RNG is owned
// and snapshotted by the owning system, not here.
type LinkSnapshot struct {
	msgs []pendingMsg
	sent uint64
}

// Snapshot captures the link's state. The snapshot shares no mutable
// storage with the link.
func (l *Link) Snapshot() *LinkSnapshot { return l.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling s, a snapshot the caller knows is
// dead (nil allocates).
func (l *Link) SnapshotInto(s *LinkSnapshot) *LinkSnapshot {
	if s == nil {
		s = &LinkSnapshot{}
	}
	s.msgs = append(s.msgs[:0], l.msgQ[l.msgHead:]...)
	s.sent = l.sent
	return s
}

// Restore returns the link to the captured state. As with Reset, only
// valid when the owning kernel is being restored in lockstep (the
// queued delivery events and the queue must stay synchronized).
func (l *Link) Restore(s *LinkSnapshot) {
	clear(l.msgQ)
	l.msgQ = append(l.msgQ[:0], s.msgs...)
	l.msgHead = 0
	l.sent = s.sent
}
