package moesi

import (
	"encoding/binary"
	"fmt"

	"drftest/internal/cache"
	"drftest/internal/directory"
	"drftest/internal/mem"
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
type Cache struct {
	k           *sim.Kernel
	id          int
	machine     *protocol.Machine
	array       *cache.Array
	dir         *directory.Directory
	reqLatency  sim.Tick
	respLatency sim.Tick
	client      mem.Requestor

	// Bugs injects protocol-implementation bugs; set before traffic.
	Bugs Bugs

	// tbes holds the request behind each line's in-flight fill or
	// upgrade. vics holds each dirty victim's data until the directory
	// acknowledges the write-back; probes that race with the victim are
	// answered from there (fromVic).
	tbes        table.Table[mem.Addr, *mem.Request]
	vics        table.Table[mem.Addr, []byte]
	stalled     table.Table[mem.Addr, []*mem.Request]
	outstanding table.Table[uint64, *mem.Request]

	loads, loadHits, stores, storeHits, writebacks uint64
}

// NewCache builds a CPU cache and attaches it to dir.
func NewCache(k *sim.Kernel, spec *protocol.Spec, rec protocol.Recorder, onFault func(*protocol.FaultError), cfg cache.Config, dir *directory.Directory) *Cache {
	m := protocol.NewMachine(spec, rec)
	m.OnFault = onFault
	c := &Cache{
		k:           k,
		machine:     m,
		array:       cache.NewArray(cfg),
		dir:         dir,
		reqLatency:  4,
		respLatency: 1,
	}
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
		c.k.Schedule(c.reqLatency, func() {
			c.dir.CPURead(c.id, line, func(data []byte, kind directory.FillKind) {
				c.onFill(line, data, kind)
			})
		})

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
			c.k.Schedule(c.reqLatency, func() {
				have := c.state(line) != StateI
				c.dir.CPUReadX(c.id, line, have, func(data []byte, kind directory.FillKind) {
					c.onFill(line, data, kind)
				})
			})
		}

	default:
		panic(fmt.Sprintf("moesi: unsupported op %v (CPU caches take loads and stores only)", req.Op))
	}
}

func (c *Cache) onFill(line mem.Addr, data []byte, kind directory.FillKind) {
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

func (c *Cache) writeBack(victim *cache.Line) {
	c.writebacks++
	line := victim.Tag
	buf := make([]byte, len(victim.Data))
	copy(buf, victim.Data)
	c.vics.Put(line, buf)
	c.k.Schedule(c.reqLatency, func() {
		c.dir.CPUWriteBack(c.id, line, buf, func() {
			c.machine.Fire(c.state(line), EvWBAck)
			c.vics.Delete(line)
		})
	})
}

// Probe implements directory.CPUPort.
func (c *Cache) Probe(line mem.Addr, inv bool, ack func(dirty []byte, fromVic bool)) {
	if vic, pending := c.vics.Get(line); pending {
		// The line's dirty data is travelling in a write-back; answer
		// the probe from the victim buffer so it is not lost.
		if inv {
			c.machine.Fire(StateI, EvPrbInv)
		} else {
			c.machine.Fire(StateI, EvPrbShr)
		}
		ack(vic, true)
		return
	}
	st := c.state(line)
	if inv {
		c.machine.Fire(st, EvPrbInv)
		var dirty []byte
		if st == StateM || st == StateO {
			e := c.array.Peek(line)
			dirty = make([]byte, len(e.Data))
			copy(dirty, e.Data)
		}
		if c.Bugs.DropProbeData {
			// BUG: the dirty data evaporates with the invalidation.
			dirty = nil
		}
		c.array.Invalidate(line)
		ack(dirty, false)
		return
	}
	c.machine.Fire(st, EvPrbShr)
	switch st {
	case StateM, StateO:
		e := c.array.Peek(line)
		dirty := make([]byte, len(e.Data))
		copy(dirty, e.Data)
		e.State = StateO
		ack(dirty, false)
	case StateE:
		c.array.Peek(line).State = StateS
		ack(nil, false)
	default:
		ack(nil, false)
	}
}

func (c *Cache) respond(req *mem.Request, data uint32) {
	c.k.Schedule(c.respLatency, func() {
		c.outstanding.Delete(req.ID)
		c.client.HandleResponse(&mem.Response{Req: req, Data: data, Tick: uint64(c.k.Now())})
	})
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
// (directory port, client, injected bugs) and its storage: every line is
// invalidated, the TBE, victim, stall and in-flight tables are emptied
// in place and the stats zeroed. The kernel must be reset first: its
// pending events reference the requests and victims dropped here.
func (c *Cache) Reset() {
	c.array.Reset()
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

// CacheSnapshot captures one CPU cache's state: array contents, TBEs,
// victim buffers, stall queues, in-flight requests, and stats.
//
// Request pointers are retained by identity (tester slab slots are
// write-once within a run). Victim data buffers are deep-copied, which
// is sound even with a write-back in flight: the buffer is never
// written after creation, so a content-equal replacement serves probes
// identically while the original travels in the scheduled event.
type CacheSnapshot struct {
	array       *cache.ArraySnapshot
	tbes        table.Table[mem.Addr, *mem.Request]
	vics        table.Table[mem.Addr, []byte]
	stalled     table.Table[mem.Addr, []*mem.Request]
	outstanding table.Table[uint64, *mem.Request]

	loads, loadHits, stores, storeHits, writebacks uint64
}

// copyLists makes dst a copy of src that shares no list with it.
func copyLists[V any](dst, src *table.Table[mem.Addr, []V]) {
	dst.CopyFrom(src)
	dst.Each(func(_ mem.Addr, q *[]V) { *q = append([]V(nil), *q...) })
}

// Snapshot captures the cache's complete state. Pair with a kernel
// snapshot taken at the same instant for a consistent cut.
func (c *Cache) Snapshot() *CacheSnapshot {
	s := &CacheSnapshot{
		array: c.array.Snapshot(),
		loads: c.loads, loadHits: c.loadHits,
		stores: c.stores, storeHits: c.storeHits,
		writebacks: c.writebacks,
	}
	s.tbes.CopyFrom(&c.tbes)
	copyLists(&s.vics, &c.vics)
	copyLists(&s.stalled, &c.stalled)
	s.outstanding.CopyFrom(&c.outstanding)
	return s
}

// Restore reinstates a state captured by Snapshot on this cache. The
// kernel must be restored to the matching cut first.
func (c *Cache) Restore(s *CacheSnapshot) {
	c.array.Restore(s.array)
	c.tbes.CopyFrom(&s.tbes)
	copyLists(&c.vics, &s.vics)
	copyLists(&c.stalled, &s.stalled)
	c.outstanding.CopyFrom(&s.outstanding)
	c.loads, c.loadHits = s.loads, s.loadHits
	c.stores, c.storeHits = s.stores, s.storeHits
	c.writebacks = s.writebacks
}
