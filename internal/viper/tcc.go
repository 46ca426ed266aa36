package viper

import (
	"encoding/binary"
	"fmt"

	"drftest/internal/cache"
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
	cu   int
	req  *mem.Request
	// probed marks a fill whose line was probe-invalidated mid-flight:
	// the arriving data still answers the waiting loads (their values
	// predate the probing writer, which is legal under DRF) but must
	// not be installed.
	probed bool

	retryFn func()
}

// TCC is the GPU's shared L2 cache controller (VIPER's "TCC"). It
// serves fills to the TCPs, merges and forwards write-throughs, routes
// atomics to the global ordering point, and answers directory probes
// in heterogeneous systems.
type TCC struct {
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

	// retryDelay spaces out atomic retries after an AtomicND.
	retryDelay sim.Tick

	tbes    table.Table[mem.Addr, *tccTBE]
	tbeFree []*tccTBE
	// allTBEs registers every TBE ever built (bounded by the peak
	// number of concurrent transactions — TBEs are recycled). Needed
	// by snapshots: the backend continuations capture the TBE pointer,
	// so a restore must write contents back into the same objects.
	allTBEs       []*tccTBE
	stalled       waitList[mem.Addr, *tcpMsg]
	stalledProbes waitList[mem.Addr, func()]
	// sendFns holds one prebound response handler per CU for the
	// allocation-free Link.SendMsg path, built on first use.
	sendFns []func(any)
	wbs     table.Table[mem.Addr, int] // in-flight memory writes per line

	// Shared backend continuations, bound once at construction; the
	// per-operation state rides in ctx (the TBE, or the WrVicBlk
	// message), so backend calls allocate nothing.
	fetchDoneFn  func(data *mem.Line, ctx any)
	atomicDoneFn func(old uint32, nack bool, ctx any)
	wbAckFn      func(ctx any)
	noopWBFn     func(ctx any)

	// stats
	rdBlks, wrVicBlks, atomicsSeen, fills, stalls uint64
	wbAcks, droppedMerges, droppedAcks            uint64
}

func newTCC(k *sim.Kernel, spec *protocol.Spec, rec protocol.Recorder, onFault func(*protocol.FaultError), l2 cache.Config, backend Backend, toTCP *network.Crossbar, bugs BugSet, pool *msgPool) *TCC {
	m := protocol.NewMachine(spec, rec)
	m.OnFault = onFault
	c := &TCC{
		k:          k,
		machine:    m,
		array:      cache.NewArray(l2),
		backend:    backend,
		toTCP:      toTCP,
		bugs:       bugs,
		pool:       pool,
		auditBuf:   make([]byte, l2.LineSize),
		retryDelay: 20,
	}
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

// getTBE takes a TBE from the free list (or builds one, binding its
// retry continuation to it for life). The caller fills the identity
// fields.
func (c *TCC) getTBE() *tccTBE {
	if n := len(c.tbeFree); n > 0 {
		t := c.tbeFree[n-1]
		c.tbeFree[n-1] = nil
		c.tbeFree = c.tbeFree[:n-1]
		return t
	}
	t := &tccTBE{}
	t.retryFn = func() { c.issueAtomic(t) }
	c.allTBEs = append(c.allTBEs, t)
	return t
}

// putTBE releases a completed transaction's TBE. Safe only once no
// backend callback or retry can still fire for it (the completion
// paths in onData / onAtomicD).
func (c *TCC) putTBE(t *tccTBE) {
	t.req = nil
	t.probed = false
	c.tbeFree = append(c.tbeFree, t)
}

// reset returns the controller to its just-built state: array
// invalidated, in-flight TBEs recycled to the free list, stalled
// messages recycled to the pool, write-through counts and stats
// cleared. Recycling the TBEs is sound only because the kernel has
// already been reset: no backend callback or retry event referencing
// them can still fire.
func (c *TCC) reset() {
	c.array.Reset()
	c.tbes.Each(func(_ mem.Addr, tbe **tccTBE) { c.putTBE(*tbe) })
	c.tbes.Clear()
	c.stalled.drop(c.pool.putTCPMsg)
	c.stalledProbes.drop(nil)
	c.wbs.Clear()
	c.rdBlks, c.wrVicBlks, c.atomicsSeen, c.fills, c.stalls = 0, 0, 0, 0, 0
	c.wbAcks, c.droppedMerges, c.droppedAcks = 0, 0, 0
	c.toTCP.Reset()
}

func (c *TCC) lineSize() int { return c.array.Config().LineSize }

func (c *TCC) slice() int { return c.sliceIndex }

func (c *TCC) attachTCP(t *TCP) { c.tcps = append(c.tcps, t) }

// Flush is a no-op for the write-through TCC: a correct controller's
// lines already match memory, and a divergent one must stay divergent
// so the audit can see it.
func (c *TCC) Flush(*mem.Store) {}

// state derives the protocol state of a line from the TBE table and
// the cache array.
func (c *TCC) state(line mem.Addr) int {
	if tbe, ok := c.tbes.Get(line); ok {
		if tbe.kind == tbeAtomic {
			return TCCStateA
		}
		return TCCStateIV
	}
	if e := c.array.Peek(line); e != nil {
		return TCCStateV
	}
	return TCCStateI
}

// FromTCP processes one request from an L1.
func (c *TCC) FromTCP(msg *tcpMsg) {
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

	// The NonAtomicRMW bug's fast path hijacks cached atomics before
	// the table is consulted with its real semantics; the transition is
	// still recorded (the implementation *believes* it took it).
	if msg.kind == msgAtomic && c.bugs.NonAtomicRMW && st == TCCStateV {
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
	// message); a WrVicBlk stays live until its write-through ack
	// (onWBAck) because it is the backend write's ctx, though its
	// payload reference is handed to the backend at issue.
	switch msg.kind {
	case msgRdBlk:
		c.rdBlks++
		if st == TCCStateV {
			e := c.array.Lookup(line)
			c.sendFillBytes(msg.cu, line, e.Data)
			c.pool.putTCPMsg(msg)
			return
		}
		tbe := c.getTBE()
		tbe.kind, tbe.line, tbe.cu, tbe.req = tbeFill, line, msg.cu, msg.req
		c.tbes.Put(line, tbe)
		c.backend.FetchLine(line, c.lineSize(), c.fetchDoneFn, tbe)
		c.pool.putTCPMsg(msg)

	case msgWrVicBlk:
		c.wrVicBlks++
		msg.checkPayload()
		if st == TCCStateV {
			if c.bugs.LostWriteRace && c.wbs.Ptr(line) != nil {
				// BUG: the racing write-through skips the merge into
				// the cached copy, leaving the L2 line stale.
				c.droppedMerges++
			} else {
				c.array.Lookup(line).WriteMasked(msg.payload.Data, msg.payload.Mask())
			}
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
		if st == TCCStateV {
			// Read-invalidate: the global copy is about to change.
			c.array.Invalidate(line)
		}
		tbe := c.getTBE()
		tbe.kind, tbe.line, tbe.cu, tbe.req = tbeAtomic, line, msg.cu, msg.req
		c.tbes.Put(line, tbe)
		c.issueAtomic(tbe)
		c.pool.putTCPMsg(msg)
	}
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
	c.putTBE(tbe)
}

func (c *TCC) onAtomicND(tbe *tccTBE) {
	st := c.state(tbe.line)
	if cell := c.machine.Fire(st, TCCAtomicND); cell.Kind != protocol.Defined {
		return
	}
	c.k.Schedule(c.retryDelay, tbe.retryFn)
}

// onData receives a fill from the backend; the TCC owns the data
// handle and transfers it onward to the fill response (installing a
// copy in the array first — cache storage mutates under later merges,
// so the array cannot alias an in-flight payload).
func (c *TCC) onData(tbe *tccTBE, data *mem.Line) {
	line := tbe.line
	st := c.state(line)
	if cell := c.machine.Fire(st, TCCData); cell.Kind != protocol.Defined {
		data.Release()
		return
	}
	if cur, _ := c.tbes.Get(line); cur != tbe || tbe.kind != tbeFill {
		panic(fmt.Sprintf("viper: TCC data for %#x without fill TBE", uint64(line)))
	}
	c.tbes.Delete(line)
	c.fills++
	if !tbe.probed {
		// tbe.probed: the line was probed away mid-fill — serve the
		// data, cache nothing.
		victim := c.array.Victim(line, nil)
		if victim != nil && victim.Valid() {
			c.machine.Fire(TCCStateV, TCCL2Repl)
		}
		e := c.array.Install(victim, line, TCCStateV)
		copy(e.Data, data.Data)
	}
	c.sendFillLine(tbe.cu, line, data)
	c.wake(line)
	c.putTBE(tbe)
}

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
	c.wbAcks++
	if c.bugs.DropWBAckEvery != 0 && c.wbAcks%c.bugs.DropWBAckEvery == 0 {
		// BUG: the completion ack evaporates; the issuing thread's
		// release will never drain.
		c.droppedAcks++
		c.pool.putTCPMsg(msg)
		return
	}
	cu, req := msg.cu, msg.req
	c.pool.putTCPMsg(msg) // write performed; the backend released the payload
	ack := c.pool.getTCCMsg()
	ack.kind, ack.line, ack.req = ackWB, line, req
	c.send(cu, ack)
}

// ProbeInv is called by the directory to invalidate a line (PrbInv in
// Table II); done runs once the TCC has given up its copy.
func (c *TCC) ProbeInv(line mem.Addr, done func()) {
	st := c.state(line)
	cell := c.machine.Fire(st, TCCPrbInv)
	switch cell.Kind {
	case protocol.Stall:
		c.stalls++
		c.stalledProbes.push(line, func() { c.ProbeInv(line, done) })
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
	done()
}

// buggyLocalAtomic is the NonAtomicRMW fast path: read now, answer now,
// write later, never serialize.
func (c *TCC) buggyLocalAtomic(msg *tcpMsg) {
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
		p()
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
// cache array's storage, which mutates under later write-through
// merges) — the one remaining copy on the V-hit fill path.
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
	c.toTCP.To(cu).SendMsgLine(fn, msg, uint64(msg.line))
}

// AuditAgainstStore compares every valid L2 line against the backing
// store and returns a description of each divergence. With all
// write-throughs drained, a correct TCC is byte-identical to memory;
// a stale line is exactly what the LostWriteRace bug leaves behind.
func (c *TCC) AuditAgainstStore(st *mem.Store) []string {
	return auditLines(c.array, st, c.auditBuf, "L2 line", -1)
}

// auditLines describes each valid line of arr, bar those in state
// dirty, whose bytes differ from the store's, read through buf.
func auditLines(arr *cache.Array, st *mem.Store, buf []byte, what string, dirty int) []string {
	var out []string
	arr.ForEachValid(func(l *cache.Line) {
		if l.State == dirty {
			return
		}
		st.ReadBytes(l.Tag, buf)
		for i := range buf {
			if l.Data[i] != buf[i] {
				out = append(out, fmt.Sprintf("%s %#x byte %d holds %d, memory holds %d",
					what, uint64(l.Tag), i, l.Data[i], buf[i]))
				return
			}
		}
	})
	return out
}

// Stats returns the controller's activity counters.
func (c *TCC) Stats() map[string]uint64 {
	return map[string]uint64{
		"rdblk":          c.rdBlks,
		"wrvicblk":       c.wrVicBlks,
		"atomics":        c.atomicsSeen,
		"fills":          c.fills,
		"stalls":         c.stalls,
		"wbacks":         c.wbAcks,
		"dropped_merges": c.droppedMerges,
		"dropped_acks":   c.droppedAcks,
	}
}

// tccTBESave is a tccTBE's identity fields (the continuations are
// bound for the TBE's life and never change).
type tccTBESave struct {
	kind   tbeKind
	line   mem.Addr
	cu     int
	req    *mem.Request
	probed bool
}

// tccSnapshot captures one write-through L2 slice.
type tccSnapshot struct {
	array *cache.ArraySnapshot
	// tbeContents is parallel to allTBEs at snapshot time; TBEs built
	// later are recycled onto the free list at restore.
	tbeContents   []tccTBESave
	tbes          table.Table[mem.Addr, *tccTBE]
	tbeFree       []*tccTBE
	stalled       waitList[mem.Addr, *tcpMsg]
	stalledProbes waitList[mem.Addr, func()]
	wbs           table.Table[mem.Addr, int]

	rdBlks, wrVicBlks, atomicsSeen, fills, stalls uint64
	wbAcks, droppedMerges, droppedAcks            uint64

	xbar *network.CrossbarSnapshot
}

func (c *TCC) snapshotInto(dst any) any {
	s, _ := dst.(*tccSnapshot)
	if s == nil {
		s = &tccSnapshot{}
	}
	s.array = c.array.SnapshotInto(s.array)
	s.tbeContents = s.tbeContents[:0]
	for _, t := range c.allTBEs {
		s.tbeContents = append(s.tbeContents, tccTBESave{kind: t.kind, line: t.line, cu: t.cu, req: t.req, probed: t.probed})
	}
	s.tbes.CopyFrom(&c.tbes)
	s.tbeFree = append(s.tbeFree[:0], c.tbeFree...)
	s.stalled.copyFrom(&c.stalled)
	s.stalledProbes.copyFrom(&c.stalledProbes)
	s.wbs.CopyFrom(&c.wbs)
	s.rdBlks, s.wrVicBlks, s.atomicsSeen = c.rdBlks, c.wrVicBlks, c.atomicsSeen
	s.fills, s.stalls, s.wbAcks = c.fills, c.stalls, c.wbAcks
	s.droppedMerges, s.droppedAcks = c.droppedMerges, c.droppedAcks
	s.xbar = c.toTCP.SnapshotInto(s.xbar)
	return s
}

func (c *TCC) restore(snap any) {
	s := snap.(*tccSnapshot)
	c.array.Restore(s.array)
	for i, t := range c.allTBEs {
		if i < len(s.tbeContents) {
			sv := s.tbeContents[i]
			t.kind, t.line, t.cu, t.req, t.probed = sv.kind, sv.line, sv.cu, sv.req, sv.probed
		} else {
			t.req, t.probed = nil, false
		}
	}
	c.tbeFree = append(c.tbeFree[:0], s.tbeFree...)
	c.tbeFree = append(c.tbeFree, c.allTBEs[len(s.tbeContents):]...)
	c.tbes.CopyFrom(&s.tbes)
	c.stalled.copyFrom(&s.stalled)
	c.stalledProbes.copyFrom(&s.stalledProbes)
	c.wbs.CopyFrom(&s.wbs)
	c.rdBlks, c.wrVicBlks, c.atomicsSeen = s.rdBlks, s.wrVicBlks, s.atomicsSeen
	c.fills, c.stalls, c.wbAcks = s.fills, s.stalls, s.wbAcks
	c.droppedMerges, c.droppedAcks = s.droppedMerges, s.droppedAcks
	c.toTCP.Restore(s.xbar)
}
