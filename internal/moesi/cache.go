package moesi

import (
	"encoding/binary"
	"fmt"

	"drftest/internal/cache"
	"drftest/internal/coverage"
	"drftest/internal/directory"
	"drftest/internal/mem"
	"drftest/internal/network"
	"drftest/internal/protocol"
	"drftest/internal/sim"
	"drftest/internal/table"
)

// Bugs selects injected CPU-protocol bugs for the Wood-style tester's
// case studies (zero value = correct).
type Bugs struct {
	// DropProbeData makes the cache answer invalidation probes of
	// dirty (M/O) lines as if they were clean, losing the newest data:
	// the next reader fetches stale memory — a classic write-back
	// protocol bug the SC value check catches immediately.
	DropProbeData bool
}

// Cache is one CPU core's private write-back cache. It implements the
// directory's CPUPort and accepts core requests like a sequencer.
//
// Every message the cache sends rides a zero-jitter network.Link with a
// prebound handler: requests and write-backs to the directory on
// reqLink (reqLatency), responses to the core on respLink
// (respLatency). Each message is one kernel event.
type Cache struct {
	k       *sim.Kernel
	id      int
	machine *protocol.Machine
	array   *cache.Array
	dir     *directory.Directory
	client  mem.Requestor

	reqLink  *network.Link
	respLink *network.Link
	// lines holds each dirty victim's data until the directory
	// acknowledges the write-back.
	lines *mem.LinePool

	// Bugs injects protocol-implementation bugs; set before traffic.
	Bugs Bugs

	// tbes holds the request behind each line's in-flight fill or
	// upgrade. vics holds each dirty victim's data until the directory
	// acknowledges the write-back; probes that race with the victim are
	// answered from there (fromVic).
	tbes        table.Table[mem.Addr, *mem.Request]
	vics        table.Table[mem.Addr, *mem.Line]
	stalled     table.Table[mem.Addr, []*mem.Request]
	outstanding table.Table[uint64, *mem.Request]

	// msgFree recycles delivered messages; onReq and onResp are the
	// links' prebound handlers.
	msgFree []*msg
	onReq   func(any)
	onResp  func(any)

	loads, loadHits, stores, storeHits, writebacks uint64
}

// Interconnect latencies of the cache's hops.
const (
	reqLatency  sim.Tick = 4
	respLatency sim.Tick = 1
)

// msg is one message in flight from the cache: a request or write-back
// to the directory, or a response to the core.
type msg struct {
	kind msgKind
	line mem.Addr
	vic  *mem.Line // a write-back's data, held in vics until its ack
	resp mem.Response
}

type msgKind uint8

const (
	msgRead msgKind = iota
	msgReadX
	msgVic
)

// NewCache builds a CPU cache and attaches it to dir.
func NewCache(k *sim.Kernel, spec *protocol.Spec, col *coverage.Collector, onFault func(*protocol.FaultError), cfg cache.Config, dir *directory.Directory) *Cache {
	m := protocol.NewMachine(spec, col.Counters(spec), k)
	m.OnFault = onFault
	c := &Cache{
		k:        k,
		machine:  m,
		array:    cache.NewArray(cfg),
		dir:      dir,
		reqLink:  network.NewLink(k, "moesi.req", reqLatency),
		respLink: network.NewLink(k, "moesi.resp", respLatency),
		lines:    mem.NewLinePool(cfg.LineSize),
	}
	c.onReq = c.deliverReq
	c.onResp = c.deliverResp
	c.id = dir.AttachCPU(c)
	return c
}

// ID returns the cache's directory port ID.
func (c *Cache) ID() int { return c.id }

// SetClient wires the core-side response sink.
func (c *Cache) SetClient(client mem.Requestor) { c.client = client }

func (c *Cache) lineSize() int { return c.array.Config().LineSize }

func (c *Cache) state(line mem.Addr) int {
	if e := c.array.Peek(line); e != nil {
		return e.State
	}
	return StateI
}

func (c *Cache) getMsg() *msg {
	if n := len(c.msgFree); n > 0 {
		m := c.msgFree[n-1]
		c.msgFree = c.msgFree[:n-1]
		return m
	}
	return &msg{}
}

func (c *Cache) putMsg(m *msg) {
	*m = msg{}
	c.msgFree = append(c.msgFree, m)
}

// send sends a request or write-back to the directory.
func (c *Cache) send(kind msgKind, line mem.Addr, vic *mem.Line) {
	m := c.getMsg()
	m.kind, m.line, m.vic = kind, line, vic
	c.reqLink.SendMsg(c.onReq, m)
}

// deliverReq is a request's arrival at the directory. An exclusive
// request reports whether the cache still holds the line as of now.
func (c *Cache) deliverReq(arg any) {
	m := arg.(*msg)
	kind, line, vic := m.kind, m.line, m.vic
	c.putMsg(m)
	switch kind {
	case msgRead:
		c.dir.CPURead(c.id, line)
	case msgReadX:
		c.dir.CPUReadX(c.id, line, c.state(line) != StateI)
	case msgVic:
		c.dir.CPUWriteBack(c.id, line, vic.Data)
	}
}

// Issue accepts one core request (load or store).
func (c *Cache) Issue(req *mem.Request) {
	if c.client == nil {
		panic("moesi: Issue before SetClient")
	}
	slot := c.outstanding.Slot(req.ID)
	if *slot != nil {
		panic(fmt.Sprintf("moesi: duplicate request ID %d", req.ID))
	}
	req.IssueTick = uint64(c.k.Now())
	req.CUID = c.id
	*slot = req
	c.process(req)
}

func (c *Cache) process(req *mem.Request) {
	line := mem.LineAddr(req.Addr, c.lineSize())
	// Resource hazard: one in-flight transaction per line.
	if c.tbes.Ptr(line) != nil {
		q := c.stalled.Slot(line)
		*q = append(*q, req)
		return
	}
	st := c.state(line)
	switch req.Op {
	case mem.OpLoad:
		c.loads++
		c.machine.Fire(st, EvLoad)
		if st != StateI {
			c.loadHits++
			c.respond(req, c.readWord(line, req.Addr))
			return
		}
		c.tbes.Put(line, req)
		c.send(msgRead, line, nil)

	case mem.OpStore:
		c.stores++
		c.machine.Fire(st, EvStore)
		switch st {
		case StateE, StateM:
			c.storeHits++
			e := c.array.Lookup(line)
			e.State = StateM
			c.writeWord(e, req.Addr, req.Data)
			c.respond(req, req.Data)
		default: // I, S, O: need write permission from the directory
			c.tbes.Put(line, req)
			c.send(msgReadX, line, nil)
		}

	default:
		panic(fmt.Sprintf("moesi: unsupported op %v (CPU caches take loads and stores only)", req.Op))
	}
}

// Fill implements directory.CPUPort: the directory's answer to a read
// or exclusive read.
func (c *Cache) Fill(line mem.Addr, data []byte, kind directory.FillKind) {
	st := c.state(line)
	var e *cache.Line
	switch kind {
	case directory.FillS:
		c.machine.Fire(st, EvDataS)
		e = c.install(line, StateS, data)
	case directory.FillE:
		c.machine.Fire(st, EvDataE)
		e = c.install(line, StateE, data)
	case directory.FillM:
		c.machine.Fire(st, EvDataM)
		if data == nil {
			// Upgrade: the cache keeps its own bytes.
			e = c.array.Lookup(line)
			if e == nil {
				panic(fmt.Sprintf("moesi: upgrade fill for %#x without a cached line", uint64(line)))
			}
			e.State = StateM
		} else {
			e = c.install(line, StateM, data)
		}
	}
	req, ok := c.tbes.Get(line)
	if !ok {
		panic(fmt.Sprintf("moesi: fill for %#x without TBE", uint64(line)))
	}
	c.tbes.Delete(line)
	if req.Op == mem.OpStore {
		e.State = StateM
		c.writeWord(e, req.Addr, req.Data)
		c.respond(req, req.Data)
	} else {
		c.respond(req, c.readWordFrom(e, req.Addr))
	}
	c.wake(line)
}

// install claims a way for line, writing back any dirty victim. Lines
// with an in-flight transaction are never victimized: evicting a line
// mid-upgrade would invalidate the copy its pending fill assumes.
func (c *Cache) install(line mem.Addr, state int, data []byte) *cache.Line {
	victim := c.array.Victim(line, func(l *cache.Line) bool {
		return c.tbes.Ptr(l.Tag) == nil
	})
	if victim == nil {
		panic(fmt.Sprintf("moesi: cache %d set for %#x fully pinned by in-flight transactions", c.id, uint64(line)))
	}
	if victim.Valid() {
		c.machine.Fire(victim.State, EvRepl)
		if victim.State == StateM || victim.State == StateO {
			c.writeBack(victim)
		}
	}
	e := c.array.Install(victim, line, state)
	copy(e.Data, data)
	return e
}

// writeBack parks the victim's data in vics and sends it to the
// directory. A line is refilled only after its write-back's ack (the
// ack leaves the blocking directory before the refill's data, on the
// same ordered link), so a line never has two write-backs pending.
func (c *Cache) writeBack(victim *cache.Line) {
	c.writebacks++
	line := victim.Tag
	if c.vics.Ptr(line) != nil {
		panic(fmt.Sprintf("moesi: cache %d wrote back %#x again before the first write-back's ack", c.id, uint64(line)))
	}
	vic := c.lines.Get(len(victim.Data))
	copy(vic.Data, victim.Data)
	c.vics.Put(line, vic)
	c.send(msgVic, line, vic)
}

// WriteBackDone implements directory.CPUPort: the directory's ack of a
// write-back frees the victim's data.
func (c *Cache) WriteBackDone(line mem.Addr) {
	c.machine.Fire(c.state(line), EvWBAck)
	if vic, ok := c.vics.Get(line); ok {
		vic.Release()
		c.vics.Delete(line)
	}
}

// Probe implements directory.CPUPort. The dirty data it returns is the
// cache's own storage, which the directory copies before the call
// returns.
func (c *Cache) Probe(line mem.Addr, inv bool) (dirty []byte, fromVic bool) {
	if vic, pending := c.vics.Get(line); pending {
		// The line's dirty data is travelling in a write-back; answer
		// the probe from the victim buffer so it is not lost.
		if inv {
			c.machine.Fire(StateI, EvPrbInv)
		} else {
			c.machine.Fire(StateI, EvPrbShr)
		}
		return vic.Data, true
	}
	st := c.state(line)
	if inv {
		c.machine.Fire(st, EvPrbInv)
		if st == StateM || st == StateO {
			dirty = c.array.Peek(line).Data
		}
		if c.Bugs.DropProbeData {
			// BUG: the dirty data evaporates with the invalidation.
			dirty = nil
		}
		c.array.Invalidate(line)
		return dirty, false
	}
	c.machine.Fire(st, EvPrbShr)
	switch st {
	case StateM, StateO:
		e := c.array.Peek(line)
		e.State = StateO
		return e.Data, false
	case StateE:
		c.array.Peek(line).State = StateS
	}
	return nil, false
}

func (c *Cache) respond(req *mem.Request, data uint32) {
	m := c.getMsg()
	m.resp = mem.Response{Req: req, Data: data}
	c.respLink.SendMsg(c.onResp, m)
}

// deliverResp is a response's arrival at the core; the Response is
// valid for the HandleResponse call only (see mem.Requestor).
func (c *Cache) deliverResp(arg any) {
	m := arg.(*msg)
	c.outstanding.Delete(m.resp.Req.ID)
	m.resp.Tick = uint64(c.k.Now())
	c.client.HandleResponse(&m.resp)
	c.putMsg(m)
}

func (c *Cache) wake(line mem.Addr) {
	queue, ok := c.stalled.Get(line)
	if !ok {
		return
	}
	c.stalled.Delete(line)
	for _, req := range queue {
		c.process(req)
	}
}

func (c *Cache) readWord(line mem.Addr, a mem.Addr) uint32 {
	return c.readWordFrom(c.array.Lookup(line), a)
}

func (c *Cache) readWordFrom(e *cache.Line, a mem.Addr) uint32 {
	off := mem.LineOffset(a, c.lineSize())
	return binary.LittleEndian.Uint32(e.Data[off : off+mem.WordSize])
}

func (c *Cache) writeWord(e *cache.Line, a mem.Addr, v uint32) {
	off := mem.LineOffset(a, c.lineSize())
	binary.LittleEndian.PutUint32(e.Data[off:off+mem.WordSize], v)
}

// Reset returns the cache to its just-built state and keeps its wiring
// (directory port, links, client, injected bugs) and its storage: every
// line is invalidated, the links and the TBE, victim, stall and
// in-flight tables are emptied in place, the victim pool re-parks every
// line and the stats are zeroed. The kernel must be reset first: its
// pending events reference the requests and messages dropped here.
func (c *Cache) Reset() {
	c.array.Reset()
	c.reqLink.Reset()
	c.respLink.Reset()
	c.lines.Reset()
	c.tbes.Clear()
	c.vics.Clear()
	c.stalled.Clear()
	c.outstanding.Clear()
	c.loads, c.loadHits, c.stores, c.storeHits, c.writebacks = 0, 0, 0, 0, 0
}

// ForEachOutstanding visits the cache's in-flight core requests.
func (c *Cache) ForEachOutstanding(visit func(*mem.Request)) {
	c.outstanding.Each(func(_ uint64, r **mem.Request) { visit(*r) })
}

// OutstandingCount returns the number of in-flight core requests.
func (c *Cache) OutstandingCount() int { return c.outstanding.Len() }

// Stats returns load/store hit counters and write-backs.
func (c *Cache) Stats() (loads, loadHits, stores, storeHits, writebacks uint64) {
	return c.loads, c.loadHits, c.stores, c.storeHits, c.writebacks
}
