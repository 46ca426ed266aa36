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

// tcpAtomic is one line's in-flight atomic at an L1.
type tcpAtomic struct {
	req   *mem.Request
	entry *cache.Line // reservation entry; nil after Repl
}

// TCP is one compute unit's L1 data cache controller (VIPER's "TCP").
// It is write-through and write-no-allocate; atomics bypass it to the
// L2's ordering point, reserving the line in state A while in flight.
type TCP struct {
	tcpState
	k       *sim.Kernel
	id      int
	machine *protocol.Machine
	array   *cache.Array
	toTCC   []*network.Link // one ordered link per L2 slice
	sliceOf func(mem.Addr) l2ctrl
	seq     *Sequencer
	pool    *msgPool
	// sendFns holds one prebound delivery handler per L2 slice for the
	// allocation-free Link.SendMsg path, built on first use (the
	// slice→L2 mapping is fixed for the system's lifetime).
	sendFns []func(any)
	// bugs selects injected bugs; the TCP reads AckDropsOverlay.
	bugs BugSet
}

// tcpState is an L1 controller's run state, the part a cut copies and
// a reset clears (the cache array and the request links are cut by the
// System). Write-through buffers keep their line handles by identity —
// the line pool's cut restores their contents — and waiting and stalled
// requests point into the tester's request slab.
type tcpState struct {
	// A line's transaction is either an atomic or a fill its coalesced
	// load misses await, never both: an atomic stalls behind waiting
	// loads, and loads stall in state A.
	atomicTBEs table.Table[mem.Addr, tcpAtomic]
	loadTBEs   waitList[mem.Addr, *mem.Request]
	// stalled holds core requests whose (state, event) cell is Stall or
	// that hit the load-TBE/atomic resource hazard; they are retried in
	// arrival order when the line's transaction completes.
	stalled waitList[mem.Addr, *mem.Request]
	// wt accumulates the bytes of this CU's in-flight write-throughs
	// per line. A fill merges them over the returned data so a thread
	// always observes its own (and its CU's) program-order-earlier
	// stores even when the fill was read from memory before the
	// write-through landed — the per-byte-mask behaviour of real VIPER.
	// An acked word stays in the buffer only while a fill that may
	// predate it is outstanding; a buffer whose write-throughs are all
	// acked lingers (count 0) until that fill arrives.
	wt table.Table[mem.Addr, wtBuf]
	// wtWords counts this CU's in-flight write-throughs per word, so an
	// ack can tell whether a later store still covers its word.
	wtWords table.Table[mem.Addr, int]

	// stats
	loads, loadHits, stores, atomics, stalls uint64
}

// copyFrom makes d hold s's state in d's own storage. Saving a cut,
// restoring one and resetting (from the zero state) are this one copy.
func (d *tcpState) copyFrom(s *tcpState) {
	d.atomicTBEs.CopyFrom(&s.atomicTBEs)
	d.loadTBEs.copyFrom(&s.loadTBEs)
	d.stalled.copyFrom(&s.stalled)
	d.wt.CopyFrom(&s.wt)
	d.wtWords.CopyFrom(&s.wtWords)
	d.loads, d.loadHits, d.stores, d.atomics, d.stalls = s.loads, s.loadHits, s.stores, s.atomics, s.stalls
}

func newTCP(k *sim.Kernel, id int, spec *protocol.Spec, col *coverage.Collector, onFault func(*protocol.FaultError), l1 cache.Config, toTCC []*network.Link, sliceOf func(mem.Addr) l2ctrl, bugs BugSet, pool *msgPool) *TCP {
	m := protocol.NewMachine(spec, col.Counters(spec), k)
	m.OnFault = onFault
	return &TCP{
		k:       k,
		id:      id,
		machine: m,
		array:   cache.NewArray(l1),
		toTCC:   toTCC,
		sliceOf: sliceOf,
		bugs:    bugs,
		pool:    pool,
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
		if buf := t.wt.Slot(line); buf.line == nil {
			// First in-flight store to this line: the accumulation
			// buffer IS the message payload (shared, two references).
			buf.line, buf.count = wl.Retain(), 1
		} else {
			// Merge the store into the accumulated bytes — those of
			// in-flight stores, or of a drained buffer lingering for a
			// fill (FromTCC's ackWB). Writable copies only if an
			// earlier message still shares the line — in-flight
			// payloads must not see later stores.
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
		off := mem.LineOffset(req.Addr, t.lineSize())
		*t.wtWords.Slot(line + mem.Addr(off))++
		m := t.pool.getTCPMsg()
		m.kind, m.cu, m.line, m.req, m.off = msgWrVicBlk, t.id, line, req, uint32(off)
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
			if buf.count == 0 {
				t.dropWT(line, buf)
			} else {
				t.trimWT(line, buf)
			}
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
		// The acked word leaves the buffer once no later store of this
		// CU covers it, and a drained buffer goes — unless a fill is
		// outstanding: the response link may jitter this ack past a
		// fill the L2 sent before it applied the store, and that fill's
		// bytes predate it. The fill overlays the buffer and then drops
		// what is acked (DESIGN §15.1).
		a, fill := line+mem.Addr(msg.off), t.loadTBEs.has(line)
		n := t.wtWords.Ptr(a)
		if *n--; *n == 0 {
			t.wtWords.Delete(a)
		}
		buf := t.wt.Ptr(line)
		if buf.count--; buf.count == 0 && (!fill || t.bugs.AckDropsOverlay) {
			t.dropWT(line, buf)
		} else if t.wtWords.Ptr(a) == nil && !fill {
			t.dropWord(buf, a)
		}
		t.seq.writeCompleted(msg.req)
	}
}

// dropWT releases line's drained write-through buffer.
func (t *TCP) dropWT(line mem.Addr, buf *wtBuf) {
	buf.line.Release()
	t.wt.Delete(line)
}

// dropWord takes the word at a out of a buffer that outlives its store.
func (t *TCP) dropWord(buf *wtBuf, a mem.Addr) {
	buf.line = buf.line.Writable()
	off := mem.LineOffset(a, t.lineSize())
	clear(buf.line.Mask()[off : off+mem.WordSize])
}

// trimWT drops from line's buffer, after a fill overlaid it, the words
// acked while that fill was outstanding: no store of this CU covers
// them any more.
func (t *TCP) trimWT(line mem.Addr, buf *wtBuf) {
	for off := 0; off < t.lineSize(); off += mem.WordSize {
		if a := line + mem.Addr(off); buf.line.Mask()[off] && t.wtWords.Ptr(a) == nil {
			t.dropWord(buf, a)
		}
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
