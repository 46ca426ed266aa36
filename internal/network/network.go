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
// argument — the allocation-free alternative to a per-message closure.
type pendingMsg struct {
	fn  func(any)
	arg any
}

// Link is a one-way channel between two components.
type Link struct {
	k       *sim.Kernel
	name    string
	latency sim.Tick
	jitter  sim.Tick
	rnd     *rng.PCG

	// SendMsg state: an ordered link delivers strictly FIFO (constant
	// latency, stable kernel ordering), so one prebound drain closure
	// and a reusable queue serve every typed message.
	msgQ      []pendingMsg
	msgHead   int
	deliverFn func()

	// unit is the link's schedule-exploration ordering domain: every
	// delivery event carries it, so a schedule chooser can interleave
	// different links' traffic but never reorder one link against
	// itself — the FIFO queue/event pairing above depends on that.
	unit uint32

	sent uint64
}

// NewLink creates an ordered link with fixed latency.
func NewLink(k *sim.Kernel, name string, latency sim.Tick) *Link {
	l := &Link{k: k, name: name, latency: latency, unit: k.NewUnit()}
	l.deliverFn = l.deliverNext
	return l
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

// SetJitter changes the link's jitter window. Only valid while nothing
// is queued or in flight (e.g. between reset runs of a reused system):
// the ordered path's FIFO matching assumes the window is fixed for the
// life of every queued message. A link built without a random stream
// cannot become jittered.
func (l *Link) SetJitter(jitter sim.Tick) {
	if jitter > 0 && l.rnd == nil {
		panic("network: SetJitter on a link built without a jitter stream")
	}
	l.jitter = jitter
}

// Sent returns the number of messages sent on the link.
func (l *Link) Sent() uint64 { return l.sent }

// ResetStats zeroes the link's traffic counter. The jitter RNG is
// shared with (and reseeded by) the owning system, so it is not
// touched here.
func (l *Link) ResetStats() { l.sent = 0 }

// Send delivers deliver() at the far end after the link's latency.
func (l *Link) Send(deliver func()) {
	l.sent++
	d := l.latency
	if l.jitter > 0 {
		d += sim.Tick(l.rnd.Intn(int(l.jitter) + 1))
	}
	l.k.ScheduleTagged(d, sim.MakeUnitTag(sim.CompLink, l.unit), deliver)
}

// SendMsg delivers fn(arg) at the far end after the link's latency.
// fn should be a prebound per-destination handler: on an ordered link
// the message then rides the reusable FIFO and nothing is allocated
// per send. A jittered link may reorder deliveries, which a FIFO
// cannot express, so it falls back to a per-message closure.
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
	if l.jitter > 0 {
		d := l.latency + sim.Tick(l.rnd.Intn(int(l.jitter)+1))
		l.k.ScheduleTagged(d, tag, func() { fn(arg) })
		return
	}
	l.msgQ = append(l.msgQ, pendingMsg{fn: fn, arg: arg})
	l.k.ScheduleTagged(l.latency, tag, l.deliverFn)
}

// deliverNext completes the oldest queued typed message. FIFO matching
// is sound for the ordered path only: every SendMsg schedules
// deliverFn exactly latency ticks out and the kernel is stable, so
// deliveries fire in queue order.
func (l *Link) deliverNext() {
	p := l.msgQ[l.msgHead]
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

// Crossbar bundles the per-destination links of a shared structure
// (e.g. the L2's response paths back to every L1) and tracks aggregate
// traffic.
type Crossbar struct {
	links []*Link
}

// NewCrossbar builds n identical ordered links named prefix.i.
func NewCrossbar(k *sim.Kernel, prefix string, n int, latency sim.Tick) *Crossbar {
	c := &Crossbar{links: make([]*Link, n)}
	for i := range c.links {
		c.links[i] = NewLink(k, prefix, latency)
	}
	return c
}

// NewJitterCrossbar builds n jittered links sharing one random stream
// (an unordered virtual network).
func NewJitterCrossbar(k *sim.Kernel, prefix string, n int, latency, jitter sim.Tick, rnd *rng.PCG) *Crossbar {
	c := &Crossbar{links: make([]*Link, n)}
	for i := range c.links {
		c.links[i] = NewJitterLink(k, prefix, latency, jitter, rnd)
	}
	return c
}

// To returns the link to destination i.
func (c *Crossbar) To(i int) *Link { return c.links[i] }

// SetJitter changes every port's jitter window (see Link.SetJitter).
func (c *Crossbar) SetJitter(jitter sim.Tick) {
	for _, l := range c.links {
		l.SetJitter(jitter)
	}
}

// ResetStats zeroes every port's traffic counter.
func (c *Crossbar) ResetStats() {
	for _, l := range c.links {
		l.ResetStats()
	}
}

// Reset fully resets every port (see Link.Reset).
func (c *Crossbar) Reset() {
	for _, l := range c.links {
		l.Reset()
	}
}

// CrossbarSnapshot captures every port of a crossbar.
type CrossbarSnapshot struct {
	links []LinkSnapshot
}

// Snapshot captures every port's state.
func (c *Crossbar) Snapshot() *CrossbarSnapshot { return c.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling s, a snapshot of this crossbar
// the caller knows is dead (nil allocates).
func (c *Crossbar) SnapshotInto(s *CrossbarSnapshot) *CrossbarSnapshot {
	if s == nil {
		s = &CrossbarSnapshot{links: make([]LinkSnapshot, len(c.links))}
	}
	for i, l := range c.links {
		l.SnapshotInto(&s.links[i])
	}
	return s
}

// Restore returns every port to the captured state.
func (c *Crossbar) Restore(s *CrossbarSnapshot) {
	for i, l := range c.links {
		l.Restore(&s.links[i])
	}
}

// TotalSent sums traffic across all ports.
func (c *Crossbar) TotalSent() uint64 {
	var n uint64
	for _, l := range c.links {
		n += l.Sent()
	}
	return n
}
