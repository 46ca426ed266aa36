package viper

import (
	"encoding/binary"
	"fmt"

	"drftest/internal/cache"
	"drftest/internal/mem"
	"drftest/internal/network"
	"drftest/internal/protocol"
	"drftest/internal/reuse"
	"drftest/internal/sim"
)

// tcpTBE tracks one line's in-flight transaction at an L1.
type tcpTBE struct {
	line   mem.Addr
	loads  []*mem.Request // coalesced load misses awaiting fill
	atomic *mem.Request   // outstanding atomic, nil if none
	entry  *cache.Line    // reservation entry for the atomic; nil after Repl
}

// TCP is one compute unit's L1 data cache controller (VIPER's "TCP").
// It is write-through and write-no-allocate; atomics bypass it to the
// L2's ordering point, reserving the line in state A while in flight.
type TCP struct {
	k       *sim.Kernel
	id      int
	machine *protocol.Machine
	array   *cache.Array
	toTCC   []*network.Link // one ordered link per L2 slice
	sliceOf func(mem.Addr) l2ctrl
	seq     *Sequencer
	pool    *msgPool

	tbes map[mem.Addr]*tcpTBE
	// tbeFree recycles completed TBEs (and their coalesced-load
	// slices), so the steady-state miss path allocates nothing.
	tbeFree []*tcpTBE
	// sendFns holds one prebound delivery handler per L2 slice for the
	// allocation-free Link.SendMsg path, built on first use (the
	// slice→L2 mapping is fixed for the system's lifetime).
	sendFns []func(any)
	// stalled holds core requests whose (state, event) cell is Stall or
	// that hit the load-TBE/atomic resource hazard; they are retried in
	// arrival order when the line's transaction completes.
	stalled waitList[mem.Addr, *mem.Request]
	// wt accumulates the bytes of this CU's in-flight write-throughs
	// per line. A fill merges them over the returned data so a thread
	// always observes its own (and its CU's) program-order-earlier
	// stores even when the fill was read from memory before the
	// write-through landed — the per-byte-mask behaviour of real VIPER.
	wt map[mem.Addr]*wtBuf
	// wtFree recycles wtBuf headers (the line payloads they reference
	// recycle through the line pool independently).
	wtFree []*wtBuf

	// stats
	loads, loadHits, stores, atomics, stalls uint64
}

func newTCP(k *sim.Kernel, id int, spec *protocol.Spec, rec protocol.Recorder, onFault func(*protocol.FaultError), l1 cache.Config, toTCC []*network.Link, sliceOf func(mem.Addr) l2ctrl, pool *msgPool) *TCP {
	m := protocol.NewMachine(spec, rec)
	m.OnFault = onFault
	return &TCP{
		k:       k,
		id:      id,
		machine: m,
		array:   cache.NewArray(l1),
		toTCC:   toTCC,
		sliceOf: sliceOf,
		pool:    pool,
		tbes:    make(map[mem.Addr]*tcpTBE),
		wt:      make(map[mem.Addr]*wtBuf),
	}
}

// reset returns the controller to its just-built state: array
// invalidated, transaction and stall state dropped, write-through
// accumulation buffers recycled into the pool, stats zeroed. In-flight
// TBEs and stalled requests are simply dropped — the kernel reset has
// already dropped the events that would have completed them.
func (t *TCP) reset() {
	t.array.Reset()
	for line, tbe := range t.tbes {
		tbe.loads = tbe.loads[:0]
		tbe.atomic, tbe.entry = nil, nil
		t.tbeFree = append(t.tbeFree, tbe)
		delete(t.tbes, line)
	}
	t.stalled.drop(nil)
	for line, buf := range t.wt {
		// Drop the line reference without releasing: the owning pool's
		// Reset force-reclaims every line, so a release here would
		// double-park lines the in-flight messages also referenced.
		buf.line = nil
		t.wtFree = append(t.wtFree, buf)
		delete(t.wt, line)
	}
	t.loads, t.loadHits, t.stores, t.atomics, t.stalls = 0, 0, 0, 0, 0
	for _, l := range t.toTCC {
		l.Reset()
	}
}

// wtBuf holds the merged bytes of a line's in-flight write-throughs as
// a borrowed line handle. The first store shares its payload line with
// the WrVicBlk message it sends (one line, two references); later
// stores merge through Writable, which copies only if that first
// message is still in flight.
type wtBuf struct {
	line  *mem.Line
	count int
}

func (t *TCP) getWTBuf() *wtBuf {
	if n := len(t.wtFree); n > 0 {
		b := t.wtFree[n-1]
		t.wtFree[n-1] = nil
		t.wtFree = t.wtFree[:n-1]
		return b
	}
	return &wtBuf{}
}

func (t *TCP) lineSize() int { return t.array.Config().LineSize }

func (t *TCP) lineOf(a mem.Addr) mem.Addr { return mem.LineAddr(a, t.lineSize()) }

// state derives the protocol state of a line: A while an atomic is in
// flight (whether or not its reservation entry survived replacement),
// V when a valid copy is cached, I otherwise.
func (t *TCP) state(line mem.Addr) int {
	if tbe, ok := t.tbes[line]; ok && tbe.atomic != nil {
		return TCPStateA
	}
	if e := t.array.Peek(line); e != nil && e.State == TCPStateV {
		return TCPStateV
	}
	return TCPStateI
}

func (t *TCP) tbe(line mem.Addr) *tcpTBE {
	tbe, ok := t.tbes[line]
	if !ok {
		if n := len(t.tbeFree); n > 0 {
			tbe = t.tbeFree[n-1]
			t.tbeFree = t.tbeFree[:n-1]
			*tbe = tcpTBE{line: line, loads: tbe.loads[:0]}
		} else {
			tbe = &tcpTBE{line: line}
		}
		t.tbes[line] = tbe
	}
	return tbe
}

// CoreRequest processes one request from the sequencer.
func (t *TCP) CoreRequest(req *mem.Request) {
	line := t.lineOf(req.Addr)

	// Resource hazard (not a protocol stall): an atomic cannot start
	// while the line has coalesced load misses in flight, because the
	// fill response would then arrive in state A and be misread as the
	// atomic's completion. Ruby handles this by recycling the message.
	if req.Op == mem.OpAtomic {
		if tbe, ok := t.tbes[line]; ok && len(tbe.loads) > 0 {
			t.stall(line, req)
			return
		}
	}

	st := t.state(line)
	var ev int
	switch req.Op {
	case mem.OpLoad:
		ev = TCPLoad
	case mem.OpStore:
		ev = TCPStoreThrough
	case mem.OpAtomic:
		ev = TCPAtomic
	default:
		panic(fmt.Sprintf("viper: unknown op %v", req.Op))
	}

	cell := t.machine.Fire(st, ev)
	switch cell.Kind {
	case protocol.Stall:
		t.stall(line, req)
		return
	case protocol.Undefined:
		return
	}

	switch req.Op {
	case mem.OpLoad:
		t.loads++
		if st == TCPStateV {
			t.loadHits++
			e := t.array.Lookup(req.Addr)
			t.seq.respond(req, t.readWord(e, req.Addr))
			return
		}
		tbe := t.tbe(line)
		tbe.loads = append(tbe.loads, req)
		if len(tbe.loads) == 1 {
			m := t.pool.getTCPMsg()
			m.kind, m.cu, m.line, m.req = msgRdBlk, t.id, line, req
			t.send(m)
		}

	case mem.OpStore:
		t.stores++
		wl := t.wordWrite(req)
		if st == TCPStateV {
			t.array.Lookup(req.Addr).WriteMasked(wl.Data, wl.Mask())
		}
		if buf, ok := t.wt[line]; !ok {
			// First in-flight store to this line: the accumulation
			// buffer IS the message payload (shared, two references).
			buf = t.getWTBuf()
			buf.line, buf.count = wl.Retain(), 1
			t.wt[line] = buf
		} else {
			// Merge the store into the accumulated bytes. Writable
			// copies only if an earlier message still shares the line —
			// in-flight payloads must not see later stores.
			bl := buf.line.Writable()
			buf.line = bl
			bm, wm := bl.Mask(), wl.Mask()
			for i, d := range wl.Data {
				if wm[i] {
					bl.Data[i] = d
					bm[i] = true
				}
			}
			buf.count++
		}
		m := t.pool.getTCPMsg()
		m.kind, m.cu, m.line, m.req = msgWrVicBlk, t.id, line, req
		m.setPayload(wl)
		t.send(m)
		t.seq.noteWriteThrough(req)
		// Plain stores complete at L1 acceptance; global visibility is
		// deferred to the TCC_AckWB — the relaxed-model window the
		// tester exists to stress.
		t.seq.respond(req, req.Data)

	case mem.OpAtomic:
		t.atomics++
		if st == TCPStateV {
			// Read-invalidate: the atomic is performed globally, so the
			// local copy would go stale.
			t.array.Invalidate(line)
		}
		tbe := t.tbe(line)
		tbe.atomic = req
		tbe.entry = t.install(line, TCPStateA)
		m := t.pool.getTCPMsg()
		m.kind, m.cu, m.line, m.req = msgAtomic, t.id, line, req
		t.send(m)
	}
}

// install claims a cache entry for line in state (V for a fill, A for
// an in-flight atomic's reservation), firing Repl on whichever valid
// line it displaces.
func (t *TCP) install(line mem.Addr, state int) *cache.Line {
	victim := t.array.Victim(line, nil)
	if victim.Valid() {
		t.machine.Fire(victim.State, TCPRepl)
		if victim.State == TCPStateA {
			// The displaced line's atomic stays in flight; the TBE
			// simply loses its reservation entry.
			if tbe, ok := t.tbes[victim.Tag]; ok {
				tbe.entry = nil
			}
		}
	}
	return t.array.Install(victim, line, state)
}

// FromTCC processes one response message from the L2.
func (t *TCP) FromTCC(msg *tccMsg) {
	line := msg.line
	st := t.state(line)
	switch msg.kind {
	case ackFill:
		cell := t.machine.Fire(st, TCPTCCAck)
		if cell.Kind != protocol.Defined {
			return
		}
		tbe := t.tbes[line]
		if tbe == nil || len(tbe.loads) == 0 {
			panic(fmt.Sprintf("viper: TCP%d fill for %#x without waiting loads", t.id, uint64(line)))
		}
		msg.checkPayload()
		e := t.install(line, TCPStateV)
		copy(e.Data, msg.payload.Data)
		if buf, ok := t.wt[line]; ok {
			e.WriteMasked(buf.line.Data, buf.line.Mask())
		}
		// Keep the backing array with the TBE (responses are queued, not
		// delivered inline, so nothing appends to it before the loop ends).
		loads := tbe.loads
		tbe.loads = tbe.loads[:0]
		t.dropTBE(tbe)
		for _, ld := range loads {
			t.seq.respond(ld, t.readWord(e, ld.Addr))
		}
		t.wake(line)

	case ackAtomic:
		cell := t.machine.Fire(st, TCPTCCAck)
		if cell.Kind != protocol.Defined {
			return
		}
		tbe := t.tbes[line]
		if tbe == nil || tbe.atomic == nil {
			panic(fmt.Sprintf("viper: TCP%d atomic ack for %#x without TBE", t.id, uint64(line)))
		}
		req := tbe.atomic
		tbe.atomic = nil
		if tbe.entry != nil {
			t.array.InvalidateLine(tbe.entry) // A → I: atomics do not cache data
			tbe.entry = nil
		}
		t.dropTBE(tbe)
		t.seq.respond(req, msg.old)
		t.wake(line)

	case ackWB:
		t.machine.Fire(st, TCPTCCAckWB)
		if buf, ok := t.wt[line]; ok {
			buf.count--
			if buf.count == 0 {
				buf.line.Release()
				buf.line = nil
				delete(t.wt, line)
				t.wtFree = append(t.wtFree, buf)
			}
		}
		t.seq.writeCompleted(msg.req)
	}
}

// FlashInvalidate implements the load-acquire Evict semantic: every
// valid line is invalidated; lines reserved by in-flight atomics are
// kept (they hold no readable data).
func (t *TCP) FlashInvalidate() {
	t.array.FlashInvalidate(func(l *cache.Line) bool {
		t.machine.Fire(l.State, TCPEvict)
		return l.State != TCPStateA
	})
}

func (t *TCP) stall(line mem.Addr, req *mem.Request) {
	t.stalls++
	t.stalled.push(line, req)
}

// wake retries requests stalled on line, in arrival order.
func (t *TCP) wake(line mem.Addr) {
	queue := t.stalled.take(line)
	for _, req := range queue {
		t.CoreRequest(req)
	}
	t.stalled.recycle(queue)
}

// dropTBE retires a TBE once its transaction fully completes. Safe to
// recycle immediately: responses are delivered through the sequencer's
// scheduled queue, so no caller holds the pointer past this dispatch.
func (t *TCP) dropTBE(tbe *tcpTBE) {
	if tbe.atomic == nil && len(tbe.loads) == 0 {
		delete(t.tbes, tbe.line)
		tbe.entry = nil
		t.tbeFree = append(t.tbeFree, tbe)
	}
}

func (t *TCP) send(msg *tcpMsg) {
	l2 := t.sliceOf(msg.line)
	si := 0
	if len(t.toTCC) > 1 {
		si = l2.slice()
	}
	if t.sendFns == nil {
		t.sendFns = make([]func(any), len(t.toTCC))
	}
	fn := t.sendFns[si]
	if fn == nil {
		fn = func(a any) { l2.FromTCP(a.(*tcpMsg)) }
		t.sendFns[si] = fn
	}
	t.toTCC[si].SendMsgLine(fn, msg, uint64(msg.line))
}

func (t *TCP) readWord(e *cache.Line, a mem.Addr) uint32 {
	off := mem.LineOffset(a, t.lineSize())
	return binary.LittleEndian.Uint32(e.Data[off : off+mem.WordSize])
}

// wordWrite builds the masked line payload for a word store: a pooled
// line whose mask covers exactly the stored word. Unmasked bytes are
// recycled garbage by design — every consumer merges under the mask.
// The caller owns the returned reference and hands it to the WrVicBlk
// message (sharing it with the write-through buffer when it is the
// line's first in-flight store).
func (t *TCP) wordWrite(req *mem.Request) *mem.Line {
	l := t.pool.lines.GetMasked(t.lineSize())
	off := mem.LineOffset(req.Addr, t.lineSize())
	binary.LittleEndian.PutUint32(l.Data[off:off+mem.WordSize], req.Data)
	mask := l.Mask()
	for i := 0; i < mem.WordSize; i++ {
		mask[off+i] = true
	}
	return l
}

// Stats returns the controller's activity counters.
func (t *TCP) Stats() (loads, loadHits, stores, atomics, stalls uint64) {
	return t.loads, t.loadHits, t.stores, t.atomics, t.stalls
}

// tcpSnapshot captures one L1 controller. TBEs are saved by value and
// rebuilt as fresh structs on restore — nothing captures a tcpTBE
// pointer across events, so identity is free to change. Write-through
// buffers keep their line-handle identities (contents and refcounts
// restored by the line-pool snapshot); stalled requests reference the
// tester's slab.
type tcpSnapshot struct {
	array   *cache.ArraySnapshot
	tbes    []tcpTBE
	stalled []listSave[mem.Addr, *mem.Request]
	wt      map[mem.Addr]wtBuf

	loads, loadHits, stores, atomics, stalls uint64

	links []network.LinkSnapshot
}

func (t *TCP) snapshotInto(s *tcpSnapshot) {
	s.array = t.array.SnapshotInto(s.array)
	s.tbes = s.tbes[:0]
	for _, tbe := range t.tbes {
		save := reuse.Grow(&s.tbes)
		loads := save.loads
		*save = *tbe
		save.loads = append(loads[:0], tbe.loads...)
	}
	s.stalled = t.stalled.save(s.stalled)
	if s.wt == nil {
		s.wt = make(map[mem.Addr]wtBuf, len(t.wt))
	}
	clear(s.wt)
	for line, buf := range t.wt {
		s.wt[line] = *buf
	}
	s.loads, s.loadHits, s.stores, s.atomics, s.stalls = t.loads, t.loadHits, t.stores, t.atomics, t.stalls
	if s.links == nil {
		s.links = make([]network.LinkSnapshot, len(t.toTCC))
	}
	for i, l := range t.toTCC {
		l.SnapshotInto(&s.links[i])
	}
}

func (t *TCP) restore(s *tcpSnapshot) {
	t.array.Restore(s.array)
	for line, tbe := range t.tbes {
		tbe.loads = tbe.loads[:0]
		tbe.atomic, tbe.entry = nil, nil
		t.tbeFree = append(t.tbeFree, tbe)
		delete(t.tbes, line)
	}
	for i := range s.tbes {
		save := &s.tbes[i]
		tbe := t.tbe(save.line)
		tbe.loads = append(tbe.loads[:0], save.loads...)
		tbe.atomic, tbe.entry = save.atomic, save.entry
	}
	t.stalled.load(s.stalled)
	for line, buf := range t.wt {
		buf.line = nil
		t.wtFree = append(t.wtFree, buf)
		delete(t.wt, line)
	}
	for line, save := range s.wt {
		buf := t.getWTBuf()
		*buf = save
		t.wt[line] = buf
	}
	t.loads, t.loadHits, t.stores, t.atomics, t.stalls = s.loads, s.loadHits, s.stores, s.atomics, s.stalls
	for i, l := range t.toTCC {
		l.Restore(&s.links[i])
	}
}
