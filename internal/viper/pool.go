package viper

import (
	"slices"

	"drftest/internal/mem"
)

// msgPool recycles the protocol-layer message structs that flow
// between a system's TCPs and TCCs, and owns the system's shared
// mem.LinePool for the payloads they carry, so the steady-state
// load/store/atomic paths allocate nothing and line data crosses the
// system by reference. The simulation is single-threaded, so plain
// stacks suffice.
//
// Safety model: every get falls back to allocation when the pool is
// empty, so a message that is never released (a stalled fault path, a
// controller variant that does not recycle) merely leaks — only a
// release while the object is still referenced can corrupt, and each
// release point is chosen where the object is provably dead (see
// FromTCP / onWBAck / TCC.send). Payload lines carry their own
// refcounts and epoch stamps (mem.Line), so a premature recycle of a
// line trips the delivery-side epoch check.
type msgPool struct {
	tcp objPool[tcpMsg]
	tcc objPool[tccMsg]
	// lines is the shared payload pool; handles flow through messages,
	// write-combining buffers, TBEs, the memory controller and the
	// directory, and release back here from any of them. It keeps its
	// own always-on registry and is snapshotted alongside.
	lines *mem.LinePool
}

// enableTracking turns on checkpoint registration, so a checkpoint can
// save the contents of every message struct that could be live. The
// message free stacks are dropped to GC first, so every struct live
// during the tracked run is registered; the line pool flips to
// snapshot-capable in place (its registry is always on). With tracking
// off (campaigns, plain runs) the registries never grow.
func (p *msgPool) enableTracking() {
	p.tcp = objPool[tcpMsg]{track: true}
	p.tcc = objPool[tccMsg]{track: true}
	p.lines.EnableTracking()
}

// reset force-reclaims the payload pool. Message structs in flight at
// reset time (early-stopped runs) leak to the GC exactly as before —
// their free stacks survive — but every payload line returns to
// service, so campaign steady states stay allocation-free even across
// faulting seeds. Only valid once the owning kernel has been reset.
func (p *msgPool) reset() {
	p.lines.Reset()
}

func (p *msgPool) getTCPMsg() *tcpMsg { return p.tcp.get() }

// putTCPMsg releases m along with the payload reference it still
// holds, if any (a WrVicBlk that handed its payload to the backend has
// already cleared the field).
func (p *msgPool) putTCPMsg(m *tcpMsg) {
	if m.payload != nil {
		m.payload.Release()
	}
	p.tcp.put(m)
}

func (p *msgPool) getTCCMsg() *tccMsg { return p.tcc.get() }

// putTCCMsg releases m along with its fill payload reference.
func (p *msgPool) putTCCMsg(m *tccMsg) {
	if m.payload != nil {
		m.payload.Release()
	}
	p.tcc.put(m)
}

// poolSnapshot captures the contents of every tracked message struct,
// the message free stacks, and the full line-pool state (contents,
// refcounts, free order). Structs and lines referenced by live
// protocol state (link queues, TBEs, stall queues, write-through
// buffers, memctrl queues) are restored in place, so all the pointers
// those structures hold stay valid after a restore.
type poolSnapshot struct {
	tcp   poolCut[tcpMsg]
	tcc   poolCut[tccMsg]
	lines *mem.LinePoolSnapshot
}

// snapshotInto captures every registered object's contents, refilling
// s (nil allocates). Only valid with tracking enabled — without it the
// live set is unknown.
func (p *msgPool) snapshotInto(s *poolSnapshot) *poolSnapshot {
	if s == nil {
		s = &poolSnapshot{}
	}
	p.tcp.save(&s.tcp)
	p.tcc.save(&s.tcc)
	s.lines = p.lines.SnapshotInto(s.lines)
	return s
}

// restore writes every registered object's captured contents back and
// rebuilds the free stacks; the structs built since are zeroed and
// freed (pooled objects are interchangeable — identity only matters
// for objects the restored state actually references, which are all
// snapshot-era).
func (p *msgPool) restore(s *poolSnapshot) {
	p.tcp.load(&s.tcp)
	p.tcc.load(&s.tcc)
	p.lines.Restore(s.lines)
}

// objPool recycles one kind of object through a free stack, and builds
// new ones by carving a chunk of them at a time. With track on it
// registers every object it builds, in build order: a cut saves each
// one's contents by value and a restore writes them back into the same
// objects, so every pointer the restored state holds stays valid.
type objPool[T any] struct {
	free  []*T
	all   []*T
	track bool
	// clean readies a dead object for reuse; nil zeroes it.
	clean func(*T)
	// chunk is the unbuilt tail of the chunk new objects are carved
	// from.
	chunk []T
}

// objChunk is how many objects a pool carves from one chunk.
const objChunk = 16

// get pops a recycled object, or builds a zero one.
func (p *objPool[T]) get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	if len(p.chunk) == 0 {
		p.chunk = make([]T, objChunk)
	}
	x := &p.chunk[0]
	p.chunk = p.chunk[1:]
	if p.track {
		p.all = append(p.all, x)
	}
	return x
}

// put cleans a dead object and returns it to the free stack.
func (p *objPool[T]) put(x *T) {
	if p.clean != nil {
		p.clean(x)
	} else {
		*x = *new(T)
	}
	p.free = append(p.free, x)
}

// poolCut is an objPool's part of a cut: the registered objects'
// contents, in registration order, and the free order.
type poolCut[T any] struct {
	vals []T
	free []*T
}

func (p *objPool[T]) save(c *poolCut[T]) {
	c.vals = slices.Grow(c.vals[:0], len(p.all))
	for _, x := range p.all {
		c.vals = append(c.vals, *x)
	}
	c.free = append(c.free[:0], p.free...)
}

// load writes c back. The objects registered since c was saved did not
// exist then: each is cleaned and freed. Loading the zero poolCut frees
// every object.
func (p *objPool[T]) load(c *poolCut[T]) {
	for i, x := range p.all[:len(c.vals)] {
		*x = c.vals[i]
	}
	p.free = append(p.free[:0], c.free...)
	for _, x := range p.all[len(c.vals):] {
		p.put(x)
	}
}
