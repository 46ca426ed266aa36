package viper

import (
	"encoding/binary"
	"fmt"

	"drftest/internal/cache"
	"drftest/internal/coverage"
	"drftest/internal/mem"
	"drftest/internal/network"
	"drftest/internal/protocol"
	"drftest/internal/sim"
	"drftest/internal/table"
)

// wbTBE tracks one line's in-flight fill at the write-back L2.
type wbTBE struct {
	// reader is the CU awaiting a fill response, or -1 when the fill
	// was started by a write-allocate.
	reader int
	// atomic, when non-nil, is performed on the line once it arrives.
	atomic   *mem.Request
	atomicCU int
	// pending buffers write-through bytes accepted while the fill was
	// in flight (write-allocate); they merge over the arriving data.
	// The TBE owns one reference to the masked line.
	pending *mem.Line
}

// TCCWB is the write-back L2 controller of the VIPER-WB variant. It
// presents the same surface to the TCPs as the write-through TCC; the
// sequencer, L1 and tester are untouched — the paper's "minimal
// extensions" claim made concrete.
type TCCWB struct {
	wbState
	k          *sim.Kernel
	sliceIndex int
	machine    *protocol.Machine
	array      *cache.Array
	backend    Backend
	tcps       []*TCP
	toTCP      *network.Crossbar
	bugs       BugSet
	pool       *msgPool
	auditBuf   []byte // one line of scratch for AuditAgainstStore

	// sendFns holds one prebound response handler per CU for the
	// allocation-free Link.SendMsg path, built on first use.
	sendFns []func(any)

	// Shared backend continuations; ctx is the boxed line address:
	// completions look the TBE up by line.
	fetchDoneFn func(data *mem.Line, ctx any)
	vicWBAckFn  func(ctx any)
}

// wbState is a write-back L2 slice's run state: a cut copies it, a
// reset clears it (the cache array and the response crossbar are cut by
// the System). Pending lines keep their handle identity; the line
// pool's cut restores their contents.
type wbState struct {
	tbes    table.Table[mem.Addr, wbTBE]
	stalled waitList[mem.Addr, *tcpMsg]
	// vicWBs counts in-flight eviction write-backs per line (probes do
	// not exist in this GPU-only variant, so no data needs retention).
	vicWBs table.Table[mem.Addr, int]

	rdBlks, wrVicBlks, atomicsSeen, fills, stalls, evictWBs uint64
}

// copyFrom makes d hold s's state in d's own storage. Saving a cut,
// restoring one and resetting (from the zero state) are this one copy.
func (d *wbState) copyFrom(s *wbState) {
	d.tbes.CopyFrom(&s.tbes)
	d.stalled.copyFrom(&s.stalled)
	d.vicWBs.CopyFrom(&s.vicWBs)
	d.rdBlks, d.wrVicBlks, d.atomicsSeen = s.rdBlks, s.wrVicBlks, s.atomicsSeen
	d.fills, d.stalls, d.evictWBs = s.fills, s.stalls, s.evictWBs
}

func newTCCWB(k *sim.Kernel, spec *protocol.Spec, col *coverage.Collector, onFault func(*protocol.FaultError), l2 cache.Config, backend Backend, toTCP *network.Crossbar, bugs BugSet, pool *msgPool) *TCCWB {
	m := protocol.NewMachine(spec, col.Counters(spec), k)
	m.OnFault = onFault
	c := &TCCWB{
		k:        k,
		machine:  m,
		array:    cache.NewArray(l2),
		backend:  backend,
		toTCP:    toTCP,
		bugs:     bugs,
		pool:     pool,
		auditBuf: make([]byte, l2.LineSize),
	}
	c.fetchDoneFn = func(data *mem.Line, ctx any) { c.onData(ctx.(mem.Addr), data) }
	c.vicWBAckFn = func(ctx any) {
		vic := ctx.(mem.Addr)
		c.machine.Fire(c.state(vic), TCCWBAck)
		n := c.vicWBs.Ptr(vic)
		if *n--; *n == 0 {
			c.vicWBs.Delete(vic)
		}
	}
	return c
}

// reset returns the controller to its just-built state, the stalled
// messages back in the pool. The TBEs' pending lines are force-reclaimed
// by the system's pool reset; the kernel reset has already dropped the
// events that referenced them.
func (c *TCCWB) reset() {
	c.stalled.drop(c.pool.putTCPMsg)
	c.copyFrom(&wbState{})
}

// save and load copy the slice's part of a cut.
func (c *TCCWB) save(s *l2State) { s.wb.copyFrom(&c.wbState) }

func (c *TCCWB) load(s *l2State) { c.copyFrom(&s.wb) }

func (c *TCCWB) lineSize() int { return c.array.Config().LineSize }

func (c *TCCWB) slice() int { return c.sliceIndex }

func (c *TCCWB) lines() *cache.Array { return c.array }

func (c *TCCWB) attachTCP(t *TCP) { c.tcps = append(c.tcps, t) }

func (c *TCCWB) state(line mem.Addr) int {
	if tbe := c.tbes.Ptr(line); tbe != nil {
		if tbe.atomic != nil {
			return TCCWBStateA
		}
		return TCCWBStateIV
	}
	if e := c.array.Peek(line); e != nil {
		return e.State
	}
	return TCCWBStateI
}

// FromTCP processes one request from an L1.
func (c *TCCWB) FromTCP(msg *tcpMsg) {
	line := msg.line
	st := c.state(line)

	var ev int
	switch msg.kind {
	case msgRdBlk:
		ev = TCCRdBlk
	case msgWrVicBlk:
		ev = TCCWrVicBlk
	case msgAtomic:
		ev = TCCAtomic
	}

	cell := c.machine.Fire(st, ev)
	switch cell.Kind {
	case protocol.Stall:
		c.stalls++
		c.stalled.push(line, msg)
		return
	case protocol.Undefined:
		c.pool.putTCPMsg(msg)
		return
	}

	switch msg.kind {
	case msgRdBlk:
		c.rdBlks++
		if st == TCCWBStateV || st == TCCWBStateD {
			c.sendFill(msg.cu, line, c.array.Lookup(line).Data)
			c.pool.putTCPMsg(msg)
			return
		}
		c.tbes.Put(line, wbTBE{reader: msg.cu})
		c.fetch(line)
		c.pool.putTCPMsg(msg)

	case msgWrVicBlk:
		c.wrVicBlks++
		msg.checkPayload()
		switch st {
		case TCCWBStateV, TCCWBStateD:
			e := c.array.Lookup(line)
			e.WriteMasked(msg.payload.Data, msg.payload.Mask())
			e.State = TCCWBStateD
		default: // I: write-allocate — buffer bytes, fetch the line
			pending := c.pool.lines.GetMasked(c.lineSize())
			mergeMasked(pending.Data, pending.Mask(), msg.payload.Data, msg.payload.Mask())
			c.tbes.Put(line, wbTBE{reader: -1, pending: pending})
			c.fetch(line)
		}
		// The L2 is the visibility point: the write is globally
		// performed on acceptance.
		cu, req, off := msg.cu, msg.req, msg.off
		c.pool.putTCPMsg(msg) // releases the payload reference
		ack := c.pool.getTCCMsg()
		ack.kind, ack.line, ack.req, ack.off = ackWB, line, req, off
		c.send(cu, ack)

	case msgAtomic:
		c.atomicsSeen++
		if st == TCCWBStateV || st == TCCWBStateD {
			c.performAtomic(line, c.array.Lookup(line), msg.req, msg.cu)
			c.pool.putTCPMsg(msg)
			return
		}
		c.tbes.Put(line, wbTBE{reader: -1, atomic: msg.req, atomicCU: msg.cu})
		c.fetch(line)
		c.pool.putTCPMsg(msg)
	}
}

func (c *TCCWB) fetch(line mem.Addr) {
	c.backend.FetchLine(line, c.lineSize(), c.fetchDoneFn, line)
}

// performAtomic executes a fetch-add on a cached line, leaving it
// dirty. With the NonAtomicRMW bug injected, the write lands after a
// window during which another atomic can read the same old value.
func (c *TCCWB) performAtomic(line mem.Addr, e *cache.Line, req *mem.Request, cu int) {
	off := mem.LineOffset(req.Addr, c.lineSize())
	old := binary.LittleEndian.Uint32(e.Data[off : off+mem.WordSize])
	c.sendAtomicAck(cu, line, req, old)
	write := func() {
		if cur := c.array.Peek(line); cur != nil && cur == e {
			binary.LittleEndian.PutUint32(e.Data[off:off+mem.WordSize], old+req.Operand)
			e.State = TCCWBStateD
		}
	}
	if c.bugs.NonAtomicRMW {
		c.k.Schedule(sim.Tick(c.bugs.nonAtomicWindow()), write)
		return
	}
	write()
}

func (c *TCCWB) onData(line mem.Addr, data *mem.Line) {
	st := c.state(line)
	if cell := c.machine.Fire(st, TCCData); cell.Kind != protocol.Defined {
		data.Release()
		return
	}
	tbe, ok := c.tbes.Get(line)
	if !ok {
		panic(fmt.Sprintf("viper: TCCWB data for %#x without TBE", uint64(line)))
	}
	e := c.install(line)
	copy(e.Data, data.Data)
	data.Release()
	e.State = TCCWBStateV
	if tbe.pending != nil {
		e.WriteMasked(tbe.pending.Data, tbe.pending.Mask())
		tbe.pending.Release()
		e.State = TCCWBStateD
	}
	c.tbes.Delete(line)
	c.fills++
	if tbe.atomic != nil {
		c.performAtomic(line, e, tbe.atomic, tbe.atomicCU)
	} else if tbe.reader >= 0 {
		c.sendFill(tbe.reader, line, e.Data)
	}
	c.wake(line)
}

// install claims a way for line, writing dirty victims back to memory.
func (c *TCCWB) install(line mem.Addr) *cache.Line {
	victim := c.array.Victim(line, nil)
	if victim != nil && victim.Valid() {
		c.machine.Fire(victim.State, TCCL2Repl)
		if victim.State == TCCWBStateD {
			c.evictWBs++
			vicLine := victim.Tag
			wl := c.pool.lines.Get(len(victim.Data))
			copy(wl.Data, victim.Data)
			*c.vicWBs.Slot(vicLine)++
			c.backend.WriteLine(vicLine, wl, c.vicWBAckFn, vicLine)
		}
	}
	return c.array.Install(victim, line, TCCWBStateV)
}

// ProbeInv must never be called: the write-back variant is GPU-only.
func (c *TCCWB) ProbeInv(line mem.Addr, done func(any), ctx any) {
	panic("viper: VIPER-WB is a GPU-only protocol; it cannot be probed by a directory")
}

// Flush functionally writes every dirty line to the store (end-of-run
// audit support; the simulation is already idle).
func (c *TCCWB) Flush(st *mem.Store) {
	c.array.ForEachValid(func(l *cache.Line) {
		if l.State == TCCWBStateD {
			st.WriteBytes(l.Tag, l.Data, nil)
			l.State = TCCWBStateV
		}
	})
}

// AuditAgainstStore compares clean lines against memory (dirty lines
// are legitimately newer; Flush first for a full audit).
func (c *TCCWB) AuditAgainstStore(st *mem.Store) []string {
	return auditLines(c.array, st, c.auditBuf, "L2WB clean line", TCCWBStateD)
}

func (c *TCCWB) wake(line mem.Addr) {
	queue := c.stalled.take(line)
	for _, m := range queue {
		c.FromTCP(m)
	}
	c.stalled.recycle(queue)
}

// sendFill copies the cache array's bytes into a pooled line (array
// storage mutates under later writes) and ships it by reference.
func (c *TCCWB) sendFill(cu int, line mem.Addr, data []byte) {
	l := c.pool.lines.Get(len(data))
	copy(l.Data, data)
	m := c.pool.getTCCMsg()
	m.kind, m.line = ackFill, line
	m.setPayload(l)
	c.send(cu, m)
}

func (c *TCCWB) sendAtomicAck(cu int, line mem.Addr, req *mem.Request, old uint32) {
	m := c.pool.getTCCMsg()
	m.kind, m.line, m.req, m.old = ackAtomic, line, req, old
	c.send(cu, m)
}

// send delivers msg to a TCP and recycles it (releasing any fill
// payload reference) afterwards: FromTCC never retains the message.
func (c *TCCWB) send(cu int, msg *tccMsg) {
	if c.sendFns == nil {
		c.sendFns = make([]func(any), len(c.tcps))
	}
	fn := c.sendFns[cu]
	if fn == nil {
		fn = func(a any) {
			m := a.(*tccMsg)
			c.tcps[cu].FromTCC(m)
			c.pool.putTCCMsg(m)
		}
		c.sendFns[cu] = fn
	}
	c.toTCP.To(cu).SendMsgLine(fn, msg, uint64(msg.line))
}

// Stats returns the controller's activity counters.
func (c *TCCWB) Stats() map[string]uint64 {
	return map[string]uint64{
		"rdblk":    c.rdBlks,
		"wrvicblk": c.wrVicBlks,
		"atomics":  c.atomicsSeen,
		"fills":    c.fills,
		"stalls":   c.stalls,
		"evictwbs": c.evictWBs,
	}
}

// mergeMasked overlays src bytes under srcMask onto dst/dstMask.
func mergeMasked(dst []byte, dstMask []bool, src []byte, srcMask []bool) {
	for i := range src {
		if srcMask == nil || srcMask[i] {
			dst[i] = src[i]
			dstMask[i] = true
		}
	}
}
