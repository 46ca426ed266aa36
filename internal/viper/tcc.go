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

// Backend is what the TCC sits on: either the memory controller
// directly (GPU-only systems) or the shared CPU–GPU system directory
// (heterogeneous systems). It is the global ordering point for data.
//
// The callback shapes mirror memctrl's exactly — done functions are
// pre-bound and carry an opaque ctx instead of closing over call-site
// state, and payloads travel as refcounted line handles — so the
// GPU-only adapter is a pure pass-through and the steady-state miss,
// write-through and atomic paths schedule no closures.
type Backend interface {
	// FetchLine reads size bytes at line and calls done with a line
	// handle the callee then owns (release or retain it).
	FetchLine(line mem.Addr, size int, done func(data *mem.Line, ctx any), ctx any)
	// WriteLine performs a masked line write (payload's bytes under its
	// mask) and calls done when the write is globally performed. The
	// backend takes ownership of one reference to payload.
	WriteLine(line mem.Addr, payload *mem.Line, done func(ctx any), ctx any)
	// Atomic performs a fetch-add on the word at addr. done receives
	// the old value, or nack=true when the ordering point refuses the
	// operation (e.g. a directory mid-probe) and the caller must retry.
	Atomic(addr mem.Addr, delta uint32, done func(old uint32, nack bool, ctx any), ctx any)
}

type tbeKind uint8

const (
	tbeFill tbeKind = iota
	tbeAtomic
)

// tccTBE tracks one line's in-flight transaction at the L2. TBEs are
// recycled through the TCC's free list; backend completions arrive on
// the TCC's shared ctx-style callbacks with the TBE as ctx, so only
// the kernel-facing retry continuation is bound per TBE (once, for the
// TBE's life).
type tccTBE struct {
	kind tbeKind
	line mem.Addr
	// cu is the requester: the CU a fill answers or an atomic acks, or
	// -1 for a write-back L2's write-allocate fill, which answers no one.
	cu  int
	req *mem.Request
	// probed marks a fill whose line was probe-invalidated mid-flight:
	// the arriving data still answers the waiting loads (their values
	// predate the probing writer, which is legal under DRF) but must
	// not be installed.
	probed bool
	// pending is a write-allocate's write-through payload, merged over
	// the arriving data; the TBE owns its reference.
	pending *mem.Line

	retryFn func()
}

// TCC is the GPU's shared L2 cache controller (VIPER's "TCC"), one per
// L2 slice, in either of the two VIPER variants. It serves fills to the
// TCPs, merges write-throughs and routes atomics, answering directory
// probes in heterogeneous systems. The variant is data: its transition
// table, the numbers of its transient and dirty states, and wb, which
// decides the two write policies that differ — a write-through L2
// forwards each write to the backend and acks it once performed there,
// and sends atomics to the backend's ordering point; a write-back L2
// (Config.WriteBackL2) is the visibility point, so it acks a write on
// acceptance, runs atomics on its own copy of the line, and writes
// dirty lines back on eviction.
type TCC struct {
	tccState
	k          *sim.Kernel
	sliceIndex int
	machine    *protocol.Machine
	array      *cache.Array
	backend    Backend
	tcps       []*TCP
	toTCP      []*network.Link // one response link per CU
	bugs       BugSet
	pool       *msgPool
	auditBuf   []byte // one line of scratch for AuditAgainstStore

	wb bool
	// stIV and stA are the variant's fill and atomic transient states;
	// dirty is its dirty state, -1 when lines never hold data newer than
	// memory (write-through). I and V are numbered alike in both tables.
	stIV, stA, dirty int
	// auditWhat names a line in AuditAgainstStore's reports.
	auditWhat string

	// retryDelay spaces out atomic retries after an AtomicND.
	retryDelay sim.Tick

	// tbePool recycles TBEs and registers every one built (bounded by
	// the peak number of concurrent transactions). The backend
	// continuations capture the TBE pointer, so a cut saves the TBEs'
	// contents by value and a restore writes them back into the same
	// objects.
	tbePool objPool[tccTBE]
	// sendFns holds one prebound response handler per CU for the
	// allocation-free Link.SendMsg path, built on first use.
	sendFns []func(any)

	// Shared backend continuations, bound once at construction; the
	// per-operation state rides in ctx (the TBE, or the WrVicBlk
	// message), so backend calls allocate nothing.
	fetchDoneFn  func(data *mem.Line, ctx any)
	atomicDoneFn func(old uint32, nack bool, ctx any)
	wbAckFn      func(ctx any)
	noopWBFn     func(ctx any)
}

// tccState is an L2 slice's run state: a cut copies it, a reset clears
// it (the cache array and the response links are cut by the System,
// the TBEs by save/load).
type tccState struct {
	tbes          table.Table[mem.Addr, *tccTBE]
	stalled       waitList[mem.Addr, *tcpMsg]
	stalledProbes waitList[mem.Addr, stalledProbe]
	// wbs counts in-flight memory writes per line: write-throughs, or a
	// write-back L2's eviction write-backs.
	wbs table.Table[mem.Addr, int]

	// stats; droppedMerges and unserializedAtomics count the
	// LostWriteRace and NonAtomicRMW bugs' firings (the latter under
	// either L2).
	rdBlks, wrVicBlks, atomicsSeen, fills, stalls uint64
	wbAcks, droppedMerges, droppedAcks, evictWBs  uint64
	unserializedAtomics                           uint64
}

// copyFrom makes d hold s's state in d's own storage. Saving a cut,
// restoring one and resetting (from the zero state) are this one copy.
func (d *tccState) copyFrom(s *tccState) {
	d.tbes.CopyFrom(&s.tbes)
	d.stalled.copyFrom(&s.stalled)
	d.stalledProbes.copyFrom(&s.stalledProbes)
	d.wbs.CopyFrom(&s.wbs)
	d.rdBlks, d.wrVicBlks, d.atomicsSeen, d.fills, d.stalls = s.rdBlks, s.wrVicBlks, s.atomicsSeen, s.fills, s.stalls
	d.wbAcks, d.droppedMerges, d.droppedAcks, d.evictWBs = s.wbAcks, s.droppedMerges, s.droppedAcks, s.evictWBs
	d.unserializedAtomics = s.unserializedAtomics
}

// l2State is one L2 slice's record in a cut.
type l2State struct {
	tcc  tccState
	tbes poolCut[tccTBE]
}

func newTCC(k *sim.Kernel, wb bool, col *coverage.Collector, onFault func(*protocol.FaultError), l2 cache.Config, backend Backend, toTCP []*network.Link, bugs BugSet, pool *msgPool) *TCC {
	spec := NewTCCSpec()
	c := &TCC{
		tbePool:    objPool[tccTBE]{track: true, clean: cleanTBE},
		k:          k,
		array:      cache.NewArray(l2),
		backend:    backend,
		toTCP:      toTCP,
		bugs:       bugs,
		pool:       pool,
		auditBuf:   make([]byte, l2.LineSize),
		stIV:       TCCStateIV,
		stA:        TCCStateA,
		dirty:      -1,
		auditWhat:  "L2 line",
		retryDelay: 20,
	}
	if wb {
		spec = NewTCCWBSpec()
		c.wb, c.stIV, c.stA, c.dirty, c.auditWhat = true, TCCWBStateIV, TCCWBStateA, TCCWBStateD, "L2WB clean line"
	}
	c.machine = protocol.NewMachine(spec, col.Counters(spec), k)
	c.machine.OnFault = onFault
	c.fetchDoneFn = func(data *mem.Line, ctx any) { c.onData(ctx.(*tccTBE), data) }
	c.atomicDoneFn = func(old uint32, nack bool, ctx any) {
		tbe := ctx.(*tccTBE)
		if nack {
			c.onAtomicND(tbe)
			return
		}
		c.onAtomicD(tbe, old)
	}
	c.wbAckFn = func(ctx any) { c.onWBAck(ctx.(*tcpMsg)) }
	c.noopWBFn = func(any) {}
	return c
}

// newTBE takes a TBE from the free list (or builds one, binding its
// retry continuation to it for life) and enters it for line.
func (c *TCC) newTBE(kind tbeKind, line mem.Addr, cu int, req *mem.Request) *tccTBE {
	t := c.tbePool.get()
	if t.retryFn == nil {
		t.retryFn = func() { c.issueAtomic(t) }
	}
	t.kind, t.line, t.cu, t.req = kind, line, cu, req
	c.tbes.Put(line, t)
	return t
}

// cleanTBE readies a dead TBE for reuse; its retryFn is bound for life.
// A pending line is already released, or force-reclaimed by a reset.
func cleanTBE(t *tccTBE) { t.req, t.probed, t.pending = nil, false, nil }

// reset returns the controller to its just-built state, the stalled
// messages back in the pool and every TBE on the free list. Recycling
// them is sound only because the kernel has already been reset: no
// backend callback or retry event referencing them can still fire.
func (c *TCC) reset() {
	c.stalled.drop(c.pool.putTCPMsg)
	c.copyFrom(&tccState{})
	c.tbePool.load(&poolCut[tccTBE]{})
}

// save and load copy the slice's part of a cut. A TBE's saved retryFn
// is the one bound to the object load writes it back into.
func (c *TCC) save(s *l2State) {
	s.tcc.copyFrom(&c.tccState)
	c.tbePool.save(&s.tbes)
}

func (c *TCC) load(s *l2State) {
	c.copyFrom(&s.tcc)
	c.tbePool.load(&s.tbes)
}

func (c *TCC) lineSize() int { return c.array.Config().LineSize }

// state derives the protocol state of a line from the TBE table and
// the cache array.
func (c *TCC) state(line mem.Addr) int {
	if tbe, ok := c.tbes.Get(line); ok {
		if tbe.kind == tbeAtomic {
			return c.stA
		}
		return c.stIV
	}
	if e := c.array.Peek(line); e != nil {
		return e.State
	}
	return TCCStateI
}

// FromTCP processes one request from an L1.
func (c *TCC) FromTCP(msg *tcpMsg) {
	line := msg.line
	st := c.state(line)
	cached := st == TCCStateV || st == c.dirty

	var ev int
	switch msg.kind {
	case msgRdBlk:
		ev = TCCRdBlk
	case msgWrVicBlk:
		ev = TCCWrVicBlk
	case msgAtomic:
		ev = TCCAtomic
	}

	// The NonAtomicRMW bug's fast path hijacks cached atomics before
	// the table is consulted with its real semantics; the transition is
	// still recorded (the implementation *believes* it took it).
	if !c.wb && msg.kind == msgAtomic && c.bugs.NonAtomicRMW && st == TCCStateV {
		c.machine.Fire(st, ev)
		c.buggyLocalAtomic(msg)
		c.pool.putTCPMsg(msg)
		return
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

	// Release points: RdBlk and Atomic messages are dead once this
	// dispatch returns (the TBE holds the core request, not the
	// message); a write-through L2's WrVicBlk stays live until its ack
	// (onWBAck) because it is the backend write's ctx, though its
	// payload reference is handed to the backend at issue.
	switch msg.kind {
	case msgRdBlk:
		c.rdBlks++
		if cached {
			e := c.array.Lookup(line)
			c.sendFillBytes(msg.cu, line, e.Data)
		} else {
			c.fetch(c.newTBE(tbeFill, line, msg.cu, msg.req))
		}
		c.pool.putTCPMsg(msg)

	case msgWrVicBlk:
		c.wrVicBlks++
		msg.checkPayload()
		if cached {
			if !c.wb && c.bugs.LostWriteRace && c.wbs.Ptr(line) != nil {
				// BUG: the racing write-through skips the merge into
				// the cached copy, leaving the L2 line stale.
				c.droppedMerges++
			} else {
				e := c.array.Lookup(line)
				e.WriteMasked(msg.payload.Data, msg.payload.Mask())
				if c.wb {
					e.State = c.dirty
				}
			}
		} else if c.wb {
			// Write-allocate: the TBE takes the payload reference and
			// merges it over the fetched line.
			tbe := c.newTBE(tbeFill, line, -1, nil)
			tbe.pending, msg.payload = msg.payload, nil
			c.fetch(tbe)
		}
		if c.wb {
			// The L2 is the visibility point: the write is globally
			// performed on acceptance.
			c.ackWrite(msg)
			return
		}
		*c.wbs.Slot(line)++
		// The message's payload reference transfers to the backend
		// write; the message itself rides along as ctx so onWBAck can
		// route the completion.
		payload := msg.payload
		msg.payload = nil
		c.backend.WriteLine(line, payload, c.wbAckFn, msg)

	case msgAtomic:
		c.atomicsSeen++
		switch {
		case !c.wb:
			if cached {
				// Read-invalidate: the global copy is about to change.
				c.array.Invalidate(line)
			}
			c.issueAtomic(c.newTBE(tbeAtomic, line, msg.cu, msg.req))
		case cached:
			c.performAtomic(line, c.array.Lookup(line), msg.req, msg.cu)
		default:
			c.fetch(c.newTBE(tbeAtomic, line, msg.cu, msg.req))
		}
		c.pool.putTCPMsg(msg)
	}
}

func (c *TCC) fetch(tbe *tccTBE) {
	c.backend.FetchLine(tbe.line, c.lineSize(), c.fetchDoneFn, tbe)
}

func (c *TCC) issueAtomic(tbe *tccTBE) {
	c.backend.Atomic(tbe.req.Addr, tbe.req.Operand, c.atomicDoneFn, tbe)
}

func (c *TCC) onAtomicD(tbe *tccTBE, old uint32) {
	st := c.state(tbe.line)
	if cell := c.machine.Fire(st, TCCAtomicD); cell.Kind != protocol.Defined {
		return
	}
	c.tbes.Delete(tbe.line)
	c.sendAtomicAck(tbe.cu, tbe.line, tbe.req, old)
	c.wake(tbe.line)
	c.tbePool.put(tbe) // completed: no backend callback or retry can fire for it
}

func (c *TCC) onAtomicND(tbe *tccTBE) {
	st := c.state(tbe.line)
	if cell := c.machine.Fire(st, TCCAtomicND); cell.Kind != protocol.Defined {
		return
	}
	c.k.Schedule(c.retryDelay, tbe.retryFn)
}

// performAtomic executes a fetch-add on a write-back L2's cached line,
// leaving it dirty. With the NonAtomicRMW bug injected, the write lands
// after a window during which another atomic can read the same old
// value; the sum is taken before the ack, since the issuer may reuse
// the request once it is answered.
func (c *TCC) performAtomic(line mem.Addr, e *cache.Line, req *mem.Request, cu int) {
	off := mem.LineOffset(req.Addr, c.lineSize())
	old := binary.LittleEndian.Uint32(e.Data[off : off+mem.WordSize])
	newVal := old + req.Operand
	c.sendAtomicAck(cu, line, req, old)
	if c.bugs.NonAtomicRMW {
		c.unserializedAtomics++
		c.k.Schedule(sim.Tick(c.bugs.nonAtomicWindow()), func() {
			if c.array.Peek(line) == e {
				binary.LittleEndian.PutUint32(e.Data[off:off+mem.WordSize], newVal)
				e.State = c.dirty
			}
		})
		return
	}
	binary.LittleEndian.PutUint32(e.Data[off:off+mem.WordSize], newVal)
	e.State = c.dirty
}

// onData receives a fill from the backend. It installs a copy in the
// array (cache storage mutates under later merges, so the array cannot
// alias an in-flight payload) and transfers the data handle onward to
// the fill response, or, for a write-back L2's atomic, runs the atomic
// on the installed line.
func (c *TCC) onData(tbe *tccTBE, data *mem.Line) {
	line := tbe.line
	st := c.state(line)
	if cell := c.machine.Fire(st, TCCData); cell.Kind != protocol.Defined {
		data.Release()
		return
	}
	if cur, _ := c.tbes.Get(line); cur != tbe {
		panic(fmt.Sprintf("viper: TCC data for %#x without its TBE", uint64(line)))
	}
	c.tbes.Delete(line)
	c.fills++
	var e *cache.Line
	if !tbe.probed {
		// tbe.probed: the line was probed away mid-fill — serve the
		// data, cache nothing.
		e = c.install(line)
		copy(e.Data, data.Data)
		if p := tbe.pending; p != nil {
			e.WriteMasked(p.Data, p.Mask())
			p.Release()
			e.State = c.dirty
		}
	}
	switch {
	case tbe.kind == tbeAtomic:
		data.Release()
		c.performAtomic(line, e, tbe.req, tbe.cu)
	case tbe.cu >= 0:
		c.sendFillLine(tbe.cu, line, data)
	default:
		data.Release()
	}
	c.wake(line)
	c.tbePool.put(tbe) // completed: no backend callback or retry can fire for it
}

// install claims a way for line, writing a dirty victim back to memory
// with a WrVicBlk of no requester as the write's ctx.
func (c *TCC) install(line mem.Addr) *cache.Line {
	victim := c.array.Victim(line, nil)
	if victim != nil && victim.Valid() {
		c.machine.Fire(victim.State, TCCL2Repl)
		if victim.State == c.dirty {
			c.evictWBs++
			wl := c.pool.lines.Get(len(victim.Data))
			copy(wl.Data, victim.Data)
			m := c.pool.getTCPMsg()
			m.kind, m.cu, m.line = msgWrVicBlk, -1, victim.Tag
			*c.wbs.Slot(victim.Tag)++
			c.backend.WriteLine(victim.Tag, wl, c.wbAckFn, m)
		}
	}
	return c.array.Install(victim, line, TCCStateV)
}

// onWBAck completes a memory write: a write-through, acked to its CU,
// or an eviction's write-back, which no one waits for.
func (c *TCC) onWBAck(msg *tcpMsg) {
	line := msg.line
	st := c.state(line)
	c.machine.Fire(st, TCCWBAck)
	n := c.wbs.Ptr(line)
	if n == nil {
		panic(fmt.Sprintf("viper: WBAck underflow for %#x", uint64(line)))
	}
	if *n--; *n == 0 {
		c.wbs.Delete(line)
	}
	if msg.cu < 0 {
		c.pool.putTCPMsg(msg)
		return
	}
	c.wbAcks++
	if c.bugs.DropWBAckEvery != 0 && c.wbAcks%c.bugs.DropWBAckEvery == 0 {
		// BUG: the completion ack evaporates; the issuing thread's
		// release will never drain.
		c.droppedAcks++
		c.pool.putTCPMsg(msg)
		return
	}
	c.ackWrite(msg)
}

// ackWrite sends a WrVicBlk's TCC_AckWB, releasing the message (and
// any payload reference it still holds) first.
func (c *TCC) ackWrite(msg *tcpMsg) {
	cu, line, off, thread := msg.cu, msg.line, msg.off, msg.thread
	c.pool.putTCPMsg(msg)
	ack := c.pool.getTCCMsg()
	ack.kind, ack.line, ack.off, ack.thread = ackWB, line, off, thread
	c.send(cu, ack)
}

// stalledProbe is a directory probe waiting out a busy line.
type stalledProbe struct {
	done func(any)
	ctx  any
}

// ProbeInv is called by the directory to invalidate a line (PrbInv in
// Table II); done(ctx) runs once the TCC has given up its copy. The
// write-back table leaves the row undefined: that variant is GPU-only.
func (c *TCC) ProbeInv(line mem.Addr, done func(any), ctx any) {
	st := c.state(line)
	cell := c.machine.Fire(st, TCCPrbInv)
	switch cell.Kind {
	case protocol.Stall:
		c.stalls++
		c.stalledProbes.push(line, stalledProbe{done: done, ctx: ctx})
		return
	case protocol.Undefined:
		return
	}
	switch st {
	case TCCStateV:
		c.array.Invalidate(line)
	case TCCStateIV:
		(*c.tbes.Ptr(line)).probed = true
	}
	done(ctx)
}

// buggyLocalAtomic is the NonAtomicRMW fast path: read now, answer now,
// write later, never serialize.
func (c *TCC) buggyLocalAtomic(msg *tcpMsg) {
	c.unserializedAtomics++
	line := msg.line
	e := c.array.Lookup(line)
	off := mem.LineOffset(msg.req.Addr, c.lineSize())
	old := binary.LittleEndian.Uint32(e.Data[off : off+mem.WordSize])
	c.sendAtomicAck(msg.cu, line, msg.req, old)
	newVal := old + msg.req.Operand
	c.k.Schedule(sim.Tick(c.bugs.nonAtomicWindow()), func() {
		if e2 := c.array.Peek(line); e2 != nil {
			binary.LittleEndian.PutUint32(e2.Data[off:off+mem.WordSize], newVal)
		}
		wl := c.pool.lines.GetMasked(c.lineSize())
		binary.LittleEndian.PutUint32(wl.Data[off:off+mem.WordSize], newVal)
		mask := wl.Mask()
		for i := 0; i < mem.WordSize; i++ {
			mask[off+i] = true
		}
		c.backend.WriteLine(line, wl, c.noopWBFn, nil)
	})
}

// wake retries messages (and probes) stalled on line after its
// transaction completes.
func (c *TCC) wake(line mem.Addr) {
	queue := c.stalled.take(line)
	for _, m := range queue {
		c.FromTCP(m)
	}
	c.stalled.recycle(queue)
	probes := c.stalledProbes.take(line)
	for _, p := range probes {
		c.ProbeInv(line, p.done, p.ctx)
	}
	c.stalledProbes.recycle(probes)
}

// sendFillLine sends an ackFill carrying l: the caller's reference
// transfers to the message (released by putTCCMsg after delivery).
func (c *TCC) sendFillLine(cu int, line mem.Addr, l *mem.Line) {
	m := c.pool.getTCCMsg()
	m.kind, m.line = ackFill, line
	m.setPayload(l)
	c.send(cu, m)
}

// sendFillBytes sends an ackFill for bytes the TCC does not own (the
// cache array's storage, which mutates under later merges) — the one
// remaining copy on the hit fill path.
func (c *TCC) sendFillBytes(cu int, line mem.Addr, data []byte) {
	l := c.pool.lines.Get(len(data))
	copy(l.Data, data)
	c.sendFillLine(cu, line, l)
}

func (c *TCC) sendAtomicAck(cu int, line mem.Addr, req *mem.Request, old uint32) {
	m := c.pool.getTCCMsg()
	m.kind, m.line, m.req, m.old = ackAtomic, line, req, old
	c.send(cu, m)
}

// send delivers msg to a TCP and recycles it afterwards: FromTCC never
// retains the message, and putTCCMsg releases the fill payload
// reference (fills are copied into the L1 array at delivery).
func (c *TCC) send(cu int, msg *tccMsg) {
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
	c.toTCP[cu].SendMsgLine(fn, msg, uint64(msg.line))
}

// Flush functionally writes every dirty line to the store (end-of-run
// audit support; the simulation is already idle). A write-through L2
// holds no dirty line.
func (c *TCC) Flush(st *mem.Store) {
	if c.dirty < 0 {
		return
	}
	c.array.ForEachValid(func(l *cache.Line) {
		if l.State == c.dirty {
			st.WriteBytes(l.Tag, l.Data, nil)
			l.State = TCCStateV
		}
	})
}

// AuditAgainstStore compares every valid clean L2 line against the
// backing store and returns a description of each divergence. With all
// write-throughs drained, a correct write-through TCC is byte-identical
// to memory; a stale line is exactly what the LostWriteRace bug leaves
// behind. Dirty lines are legitimately newer: Flush first for a full
// audit.
func (c *TCC) AuditAgainstStore(st *mem.Store) []string {
	var out []string
	buf := c.auditBuf
	c.array.ForEachValid(func(l *cache.Line) {
		if l.State == c.dirty {
			return
		}
		st.ReadBytes(l.Tag, buf)
		for i := range buf {
			if l.Data[i] != buf[i] {
				out = append(out, fmt.Sprintf("%s %#x byte %d holds %d, memory holds %d",
					c.auditWhat, uint64(l.Tag), i, l.Data[i], buf[i]))
				return
			}
		}
	})
	return out
}

// Stats returns the controller's activity counters.
func (c *TCC) Stats() map[string]uint64 {
	return map[string]uint64{
		"rdblk":                c.rdBlks,
		"wrvicblk":             c.wrVicBlks,
		"atomics":              c.atomicsSeen,
		"fills":                c.fills,
		"stalls":               c.stalls,
		"wbacks":               c.wbAcks,
		"dropped_merges":       c.droppedMerges,
		"dropped_acks":         c.droppedAcks,
		"evictwbs":             c.evictWBs,
		"unserialized_atomics": c.unserializedAtomics,
	}
}
