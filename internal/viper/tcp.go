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

// tcpAtomic is one line's in-flight atomic at an L1.
type tcpAtomic struct {
	req   *mem.Request
	entry *cache.Line // reservation entry; nil after Repl
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

	// A line's transaction is either an atomic or a fill its coalesced
	// load misses await, never both: an atomic stalls behind waiting
	// loads, and loads stall in state A.
	atomicTBEs table.Table[mem.Addr, tcpAtomic]
	loadTBEs   waitList[mem.Addr, *mem.Request]
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
	wt table.Table[mem.Addr, wtBuf]

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
	}
}

// reset returns the controller to its just-built state: array
// invalidated, transaction and stall state dropped, write-through
// accumulation buffers recycled into the pool, stats zeroed. In-flight
// TBEs and stalled requests are simply dropped — the kernel reset has
// already dropped the events that would have completed them.
func (t *TCP) reset() {
	t.array.Reset()
	t.atomicTBEs.Clear()
	t.loadTBEs.drop(nil)
	t.stalled.drop(nil)
	// The buffers' line references are dropped without releasing: the
	// owning pool's Reset force-reclaims every line, so a release here
	// would double-park lines the in-flight messages also referenced.
	t.wt.Clear()
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

func (t *TCP) lineSize() int { return t.array.Config().LineSize }

func (t *TCP) lineOf(a mem.Addr) mem.Addr { return mem.LineAddr(a, t.lineSize()) }

// state derives the protocol state of a line: A while an atomic is in
// flight (whether or not its reservation entry survived replacement),
// V when a valid copy is cached, I otherwise.
func (t *TCP) state(line mem.Addr) int {
	if t.atomicTBEs.Ptr(line) != nil {
		return TCPStateA
	}
	if e := t.array.Peek(line); e != nil && e.State == TCPStateV {
		return TCPStateV
	}
	return TCPStateI
}

// CoreRequest processes one request from the sequencer.
func (t *TCP) CoreRequest(req *mem.Request) {
	line := t.lineOf(req.Addr)

	// Resource hazard (not a protocol stall): an atomic cannot start
	// while the line has coalesced load misses in flight, because the
	// fill response would then arrive in state A and be misread as the
	// atomic's completion. Ruby handles this by recycling the message.
	if req.Op == mem.OpAtomic && t.loadTBEs.has(line) {
		t.stall(line, req)
		return
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
		if t.loadTBEs.push(line, req) == 1 {
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
		if buf := t.wt.Slot(line); buf.count == 0 {
			// First in-flight store to this line: the accumulation
			// buffer IS the message payload (shared, two references).
			buf.line, buf.count = wl.Retain(), 1
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
		t.atomicTBEs.Put(line, tcpAtomic{req: req, entry: t.install(line, TCPStateA)})
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
			// The displaced line's atomic stays in flight; it simply
			// loses its reservation entry.
			if a := t.atomicTBEs.Ptr(victim.Tag); a != nil {
				a.entry = nil
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
		loads := t.loadTBEs.take(line)
		if len(loads) == 0 {
			panic(fmt.Sprintf("viper: TCP%d fill for %#x without waiting loads", t.id, uint64(line)))
		}
		msg.checkPayload()
		e := t.install(line, TCPStateV)
		copy(e.Data, msg.payload.Data)
		if buf := t.wt.Ptr(line); buf != nil {
			e.WriteMasked(buf.line.Data, buf.line.Mask())
		}
		for _, ld := range loads {
			t.seq.respond(ld, t.readWord(e, ld.Addr))
		}
		t.loadTBEs.recycle(loads)
		t.wake(line)

	case ackAtomic:
		cell := t.machine.Fire(st, TCPTCCAck)
		if cell.Kind != protocol.Defined {
			return
		}
		a, ok := t.atomicTBEs.Get(line)
		if !ok {
			panic(fmt.Sprintf("viper: TCP%d atomic ack for %#x without an atomic in flight", t.id, uint64(line)))
		}
		if a.entry != nil {
			t.array.InvalidateLine(a.entry) // A → I: atomics do not cache data
		}
		t.atomicTBEs.Delete(line)
		t.seq.respond(a.req, msg.old)
		t.wake(line)

	case ackWB:
		t.machine.Fire(st, TCPTCCAckWB)
		if buf := t.wt.Ptr(line); buf != nil {
			buf.count--
			if buf.count == 0 {
				buf.line.Release()
				t.wt.Delete(line)
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

// tcpSnapshot captures one L1 controller, its keyed state in twins of
// the live containers. Write-through buffers keep their line-handle
// identities (contents and refcounts restored by the line-pool
// snapshot); waiting and stalled requests reference the tester's slab.
type tcpSnapshot struct {
	array             *cache.ArraySnapshot
	atomicTBEs        table.Table[mem.Addr, tcpAtomic]
	loadTBEs, stalled waitList[mem.Addr, *mem.Request]
	wt                table.Table[mem.Addr, wtBuf]

	loads, loadHits, stores, atomics, stalls uint64

	links []network.LinkSnapshot
}

func (t *TCP) snapshotInto(s *tcpSnapshot) {
	s.array = t.array.SnapshotInto(s.array)
	s.atomicTBEs.CopyFrom(&t.atomicTBEs)
	s.loadTBEs.copyFrom(&t.loadTBEs)
	s.stalled.copyFrom(&t.stalled)
	s.wt.CopyFrom(&t.wt)
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
	t.atomicTBEs.CopyFrom(&s.atomicTBEs)
	t.loadTBEs.copyFrom(&s.loadTBEs)
	t.stalled.copyFrom(&s.stalled)
	t.wt.CopyFrom(&s.wt)
	t.loads, t.loadHits, t.stores, t.atomics, t.stalls = s.loads, s.loadHits, s.stores, s.atomics, s.stalls
	for i, l := range t.toTCC {
		l.Restore(&s.links[i])
	}
}
