package directory

import (
	"fmt"
	"math/bits"

	"drftest/internal/mem"
	"drftest/internal/memctrl"
	"drftest/internal/protocol"
	"drftest/internal/sim"
	"drftest/internal/table"
)

// CPUPort is a CPU cache as the directory sees it.
type CPUPort interface {
	// Probe asks the cache to invalidate (inv) or downgrade (!inv) the
	// line. ack carries the dirty line data (nil if clean) and fromVic
	// when the data came from a pending write-back rather than a live
	// copy.
	Probe(line mem.Addr, inv bool, ack func(dirty []byte, fromVic bool))
}

// GPUPort is the GPU L2 as the directory sees it.
type GPUPort interface {
	ProbeInv(line mem.Addr, done func())
}

// FillKind tells a CPU cache what permission its fill grants.
type FillKind uint8

const (
	// FillS grants a shared clean copy.
	FillS FillKind = iota
	// FillE grants an exclusive clean copy.
	FillE
	// FillM grants write permission (store miss or upgrade; data is
	// nil for upgrades — the cache keeps its bytes).
	FillM
)

type dirOp uint8

const (
	opGPURd dirOp = iota
	opGPUWr
	opGPUAt
	opGPUClean // post-NACK cleanup of CPU copies
	opCPURd
	opCPURdX
	opCPUVic
	opDMARd
	opDMAWr
)

// MaxPorts bounds the CPU and GPU port counts so holder and sharer
// sets fit in one bitmask word (no per-line set allocation).
const MaxPorts = 64

// tbe carries one transaction from request to completion. TBEs are
// pooled: entry points fill one from the free list, complete (or the
// stale-vic early out) zeroes it back. Everything a stalled retry
// needs is in here, so the stall queue holds no closures.
type tbe struct {
	op   dirOp
	line mem.Addr
	cpu  int
	gpu  int // requesting GPU for GPU ops

	probesOut int
	dirty     []byte // probe data that must reach memory
	serve     []byte // probe data served directly (owner keeps O)
	have      bool   // CPURdX requester believes it holds a copy
	upgrade   bool   // CPURdX by an existing sharer: no data needed

	// wrLine is a GPU write-through payload: a borrowed line handle the
	// TBE owns until the memory phase hands it to the controller.
	wrLine *mem.Line
	wrData []byte // CPU victim / DMA write payload (borrowed bytes)
	atAddr mem.Addr
	delta  uint32

	doneData func([]byte)
	doneCPU  func([]byte, FillKind)
	done     func()
	// GPU-side completions carry the requester's opaque ctx (gctx); the
	// fill transfers a line handle the callee then owns.
	doneGPUData func(*mem.Line, any)
	doneGPU     func(any)
	doneAt      func(uint32, bool, any)
	gctx        any
}

// stalledReq is one queued retry: the event to re-fire plus the
// already-built TBE, so a stall-and-wake cycle allocates nothing.
type stalledReq struct {
	ev int
	t  *tbe
}

// pendingResp is one queued completion delivery. All requester
// responses leave the directory after the same constant respLatency
// and the kernel is stable, so a reusable FIFO drained by one prebound
// handler replaces a per-completion closure (the network.Link SendMsg
// pattern). fn holds the typed callback; kind selects its signature.
type pendingResp struct {
	kind    uint8
	nack    bool
	cpuKind FillKind
	old     uint32
	fn      any
	line    *mem.Line
	buf     []byte
	gctx    any
}

const (
	respPlain   uint8 = iota // fn: func()
	respGPUWr                // fn: func(any)
	respGPUFill              // fn: func(*mem.Line, any)
	respAtomic               // fn: func(uint32, bool, any)
	respData                 // fn: func([]byte)
	respCPU                  // fn: func([]byte, FillKind)
)

// Directory is the blocking CPU–GPU–DMA system directory. It
// implements the GPU L2's backend interface (FetchLine / WriteLine /
// Atomic) structurally, so a viper system can be built directly on it.
type Directory struct {
	k        *sim.Kernel
	machine  *protocol.Machine
	mem      *memctrl.Controller
	lineSize int
	// lines supplies payload handles for the writes the directory
	// originates itself (CPU victim flushes, DMA writes); GPU payloads
	// arrive as handles and pass through untouched.
	lines *mem.LinePool

	// probeLatency and respLatency model the interconnect hops.
	probeLatency sim.Tick
	respLatency  sim.Tick

	gpus []GPUPort
	cpus []CPUPort

	// gpuHolders is the bitmask of GPU L2s that may hold each line;
	// multi-GPU systems probe the *other* L2s on writes and atomics
	// (Table II's "invalidation request from other L2"). sharers is
	// the same for CPU caches. A line with no holder, sharer or owner
	// has no entry.
	gpuHolders table.Table[mem.Addr, uint64]
	sharers    table.Table[mem.Addr, uint64]
	owner      table.Table[mem.Addr, int]
	tbes       table.Table[mem.Addr, *tbe]
	stalled    table.Table[mem.Addr, []stalledReq]

	// Free lists: retired TBEs and drained stall queues (their backing
	// arrays) cycle back through these instead of the heap.
	tbeFree   []*tbe
	stallFree [][]stalledReq

	// Completion FIFO (see pendingResp).
	respQ    []pendingResp
	respHead int
	respFn   func()

	// Prebound memory-controller callbacks; the TBE rides as ctx.
	onGPUFill   func(*mem.Line, any)
	onReadData  func(*mem.Line, any)
	onWriteDone func(any)
	onDirtyWB   func(any)
	onAtomicOld func(uint32, bool, any)

	// stats
	nacks, probes, staleVics uint64
}

// New builds a directory over ctrl with the given line size.
func New(k *sim.Kernel, rec protocol.Recorder, onFault func(*protocol.FaultError), ctrl *memctrl.Controller, lineSize int) *Directory {
	m := protocol.NewMachine(NewSpec(), rec)
	m.OnFault = onFault
	d := &Directory{
		k:            k,
		machine:      m,
		mem:          ctrl,
		lineSize:     lineSize,
		lines:        mem.NewLinePool(lineSize),
		probeLatency: 8,
		respLatency:  8,
	}
	d.respFn = d.deliverResp
	d.onGPUFill = func(data *mem.Line, ctx any) {
		t := ctx.(*tbe)
		d.machine.Fire(StateB, EvMemData)
		d.completeGPUFill(t, data)
	}
	d.onReadData = func(data *mem.Line, ctx any) {
		t := ctx.(*tbe)
		d.machine.Fire(StateB, EvMemData)
		d.complete(t, data.Data)
		data.Release()
	}
	d.onWriteDone = func(ctx any) {
		t := ctx.(*tbe)
		d.machine.Fire(StateB, EvMemWBAck)
		d.complete(t, nil)
	}
	d.onDirtyWB = func(ctx any) {
		t := ctx.(*tbe)
		d.machine.Fire(StateB, EvMemWBAck)
		d.memPhase(t)
	}
	d.onAtomicOld = func(old uint32, _ bool, ctx any) {
		t := ctx.(*tbe)
		d.machine.Fire(StateB, EvMemData)
		fn, gctx := t.doneAt, t.gctx
		// complete recycles the TBE and runs stalled retries; the
		// response is queued after so event order matches the retries'.
		d.complete(t, nil)
		d.pushResp(pendingResp{kind: respAtomic, fn: fn, old: old, gctx: gctx})
	}
	return d
}

// AttachGPU registers a GPU (slot 0) for probes — the common
// single-GPU case. Multi-GPU systems use AddGPU/BindGPU/GPUBackend.
func (d *Directory) AttachGPU(gpu GPUPort) {
	if len(d.gpus) == 0 {
		d.AddGPU()
	}
	d.BindGPU(0, gpu)
}

// AddGPU reserves a GPU slot and returns its ID; the port is bound
// later with BindGPU (the viper system needs the backend to build, and
// the directory needs the built system to probe).
func (d *Directory) AddGPU() int {
	if len(d.gpus) == MaxPorts {
		panic("directory: too many GPUs for the holder bitmask")
	}
	d.gpus = append(d.gpus, nil)
	return len(d.gpus) - 1
}

// BindGPU wires the probe port for a reserved GPU slot.
func (d *Directory) BindGPU(id int, gpu GPUPort) { d.gpus[id] = gpu }

// GPUBackend returns the memory backend GPU id's L2 should be built
// on; it tags every request with the GPU's identity so the directory
// can probe the other GPUs' L2 copies.
func (d *Directory) GPUBackend(id int) GPUBackendPort {
	return GPUBackendPort{d: d, id: id}
}

// GPUBackendPort adapts one GPU's view of the directory to the viper
// Backend interface.
type GPUBackendPort struct {
	d  *Directory
	id int
}

// FetchLine implements the GPU L2 backend.
func (g GPUBackendPort) FetchLine(line mem.Addr, size int, done func(*mem.Line, any), ctx any) {
	g.d.gpuFetch(g.id, line, size, done, ctx)
}

// WriteLine implements the GPU L2 backend.
func (g GPUBackendPort) WriteLine(line mem.Addr, payload *mem.Line, done func(any), ctx any) {
	g.d.gpuWrite(g.id, line, payload, done, ctx)
}

// Atomic implements the GPU L2 backend.
func (g GPUBackendPort) Atomic(addr mem.Addr, delta uint32, done func(uint32, bool, any), ctx any) {
	g.d.gpuAtomic(g.id, addr, delta, done, ctx)
}

// AttachCPU registers a CPU cache and returns its port ID.
func (d *Directory) AttachCPU(c CPUPort) int {
	if len(d.cpus) == MaxPorts {
		panic("directory: too many CPUs for the sharer bitmask")
	}
	d.cpus = append(d.cpus, c)
	return len(d.cpus) - 1
}

// Reset returns the directory to its just-built state and keeps its
// wiring (ports, controller, prebound callbacks) and its storage: the
// line tables, TBEs, stall queues and completion FIFO are emptied in
// place, the stats zeroed, and the line pool re-parks every line. The
// kernel must be reset first: its pending events reference the TBEs
// and responses dropped here. The memory controller is its owner's to
// reset.
func (d *Directory) Reset() {
	d.gpuHolders.Clear()
	d.sharers.Clear()
	d.owner.Clear()
	d.tbes.Clear()
	d.stalled.Clear()
	clear(d.respQ)
	d.respQ, d.respHead = d.respQ[:0], 0
	d.nacks, d.probes, d.staleVics = 0, 0, 0
	d.lines.Reset()
}

// Memory exposes the backing memory controller.
func (d *Directory) Memory() *memctrl.Controller { return d.mem }

// Stats returns (nacks, probes, staleVics).
func (d *Directory) Stats() (nacks, probes, staleVics uint64) {
	return d.nacks, d.probes, d.staleVics
}

func (d *Directory) state(line mem.Addr) int {
	switch {
	case d.tbes.Ptr(line) != nil:
		return StateB
	case d.gpuHolders.Ptr(line) != nil:
		return StateG
	case d.owner.Ptr(line) != nil:
		return StateCM
	case d.sharers.Ptr(line) != nil:
		return StateCS
	}
	return StateU
}

func (d *Directory) ownerOf(line mem.Addr) int {
	if o, ok := d.owner.Get(line); ok {
		return o
	}
	return -1
}

func (d *Directory) getTBE() *tbe {
	if n := len(d.tbeFree); n > 0 {
		t := d.tbeFree[n-1]
		d.tbeFree = d.tbeFree[:n-1]
		return t
	}
	return &tbe{}
}

func (d *Directory) putTBE(t *tbe) {
	*t = tbe{}
	d.tbeFree = append(d.tbeFree, t)
}

// pushResp queues a completion. Under steady traffic the queue never
// empties, so before append would regrow a full array it moves the
// live window down over the consumed prefix, once that prefix is at
// least half the array: the array then stops growing at twice the peak
// depth, and each entry is moved at most once per lap (amortised O(1)).
func (d *Directory) pushResp(r pendingResp) {
	if len(d.respQ) == cap(d.respQ) && 2*d.respHead >= len(d.respQ) {
		n := copy(d.respQ, d.respQ[d.respHead:])
		clear(d.respQ[n:])
		d.respQ, d.respHead = d.respQ[:n], 0
	}
	d.respQ = append(d.respQ, r)
	d.k.Schedule(d.respLatency, d.respFn)
}

// deliverResp completes the oldest queued response. FIFO matching is
// sound because every response is scheduled exactly respLatency ticks
// out and the kernel is stable, so deliveries fire in queue order.
func (d *Directory) deliverResp() {
	r := d.respQ[d.respHead]
	d.respQ[d.respHead] = pendingResp{}
	d.respHead++
	if d.respHead == len(d.respQ) {
		d.respQ = d.respQ[:0]
		d.respHead = 0
	}
	switch r.kind {
	case respPlain:
		r.fn.(func())()
	case respGPUWr:
		r.fn.(func(any))(r.gctx)
	case respGPUFill:
		r.fn.(func(*mem.Line, any))(r.line, r.gctx)
	case respAtomic:
		r.fn.(func(uint32, bool, any))(r.old, r.nack, r.gctx)
	case respData:
		r.fn.(func([]byte))(r.buf)
	case respCPU:
		r.fn.(func([]byte, FillKind))(r.buf, r.cpuKind)
	}
}

// request fires ev for line; on stall it queues the TBE for a wake
// retry, otherwise the transaction starts against the pre-transaction
// stable state.
func (d *Directory) request(line mem.Addr, ev int, t *tbe) {
	st := d.state(line)
	cell := d.machine.Fire(st, ev)
	switch cell.Kind {
	case protocol.Stall:
		q := d.stalled.Slot(line)
		if *q == nil && len(d.stallFree) > 0 {
			*q = d.stallFree[len(d.stallFree)-1]
			d.stallFree = d.stallFree[:len(d.stallFree)-1]
		}
		*q = append(*q, stalledReq{ev: ev, t: t})
	case protocol.Defined:
		d.start(t, st)
	}
}

// start runs the per-op admission logic that must see the transaction's
// actual start state (not its enqueue state), then begins it.
func (d *Directory) start(t *tbe, st int) {
	switch t.op {
	case opCPURdX:
		// Upgrade validity is judged now: sharer lists go stale while a
		// request waits, and probes can invalidate the requester's copy.
		ss, _ := d.sharers.Get(t.line)
		t.upgrade = t.have && ss&(1<<uint(t.cpu)) != 0
	case opCPUVic:
		// Write-backs that lost a race with a probe (the directory no
		// longer believes t.cpu owns the line) are acknowledged without
		// touching memory.
		if st != StateCM || d.ownerOf(t.line) != t.cpu {
			d.staleVics++
			d.pushResp(pendingResp{kind: respPlain, fn: t.done})
			d.putTBE(t)
			return
		}
	}
	d.begin(t, st)
}

// --- GPU side ---

// FetchLine, WriteLine and Atomic keep the single-GPU convenience
// surface (GPU slot 0); multi-GPU systems go through GPUBackend.

// FetchLine services a GPU L2 miss.
func (d *Directory) FetchLine(line mem.Addr, size int, done func(*mem.Line, any), ctx any) {
	d.gpuFetch(0, line, size, done, ctx)
}

// WriteLine services a GPU write-through.
func (d *Directory) WriteLine(line mem.Addr, payload *mem.Line, done func(any), ctx any) {
	d.gpuWrite(0, line, payload, done, ctx)
}

// Atomic services a GPU atomic.
func (d *Directory) Atomic(addr mem.Addr, delta uint32, done func(old uint32, nack bool, ctx any), ctx any) {
	d.gpuAtomic(0, addr, delta, done, ctx)
}

func (d *Directory) gpuFetch(gpu int, line mem.Addr, size int, done func(*mem.Line, any), ctx any) {
	if size != d.lineSize {
		panic(fmt.Sprintf("directory: fetch size %d != line size %d", size, d.lineSize))
	}
	t := d.getTBE()
	t.op, t.line, t.gpu, t.doneGPUData, t.gctx = opGPURd, line, gpu, done, ctx
	d.request(line, EvGPURd, t)
}

func (d *Directory) gpuWrite(gpu int, line mem.Addr, payload *mem.Line, done func(any), ctx any) {
	t := d.getTBE()
	t.op, t.line, t.gpu, t.wrLine, t.doneGPU, t.gctx = opGPUWr, line, gpu, payload, done, ctx
	d.request(line, EvGPUWr, t)
}

// gpuAtomic never blocks the requester: a busy or CPU-held line is
// NACKed (the TCC's AtomicND path) and, for CPU-held lines, a cleanup
// transaction evicts the CPU copies so the retry can succeed.
func (d *Directory) gpuAtomic(gpu int, addr mem.Addr, delta uint32, done func(old uint32, nack bool, ctx any), ctx any) {
	line := mem.LineAddr(addr, d.lineSize)
	st := d.state(line)
	cell := d.machine.Fire(st, EvGPUAt)
	if cell.Kind != protocol.Defined {
		return
	}
	switch st {
	case StateB:
		d.nacks++
		d.pushResp(pendingResp{kind: respAtomic, fn: done, nack: true, gctx: ctx})
	case StateCS, StateCM:
		d.nacks++
		d.pushResp(pendingResp{kind: respAtomic, fn: done, nack: true, gctx: ctx})
		t := d.getTBE()
		t.op, t.line, t.gpu = opGPUClean, line, gpu
		d.begin(t, st)
	default:
		t := d.getTBE()
		t.op, t.line, t.gpu = opGPUAt, line, gpu
		t.atAddr, t.delta, t.doneAt, t.gctx = addr, delta, done, ctx
		d.begin(t, st)
	}
}

// --- CPU side ---

// CPURead services a CPU load miss.
func (d *Directory) CPURead(cpu int, line mem.Addr, done func(data []byte, kind FillKind)) {
	t := d.getTBE()
	t.op, t.line, t.cpu, t.doneCPU = opCPURd, line, cpu, done
	d.request(line, EvCPURd, t)
}

// CPUReadX services a CPU store miss or upgrade. have reports whether
// the requester still holds a valid copy; only when both the requester
// and the directory agree is the fill an upgrade (nil data) — see
// start. A stale upgrade is still accepted but serviced as a full
// exclusive fill.
func (d *Directory) CPUReadX(cpu int, line mem.Addr, have bool, done func(data []byte, kind FillKind)) {
	ev := EvCPURdX
	if have {
		ev = EvCPUUpg
	}
	t := d.getTBE()
	t.op, t.line, t.cpu, t.have, t.doneCPU = opCPURdX, line, cpu, have, done
	d.request(line, ev, t)
}

// CPUWriteBack services a dirty victim (stale victims are filtered in
// start).
func (d *Directory) CPUWriteBack(cpu int, line mem.Addr, data []byte, done func()) {
	t := d.getTBE()
	t.op, t.line, t.cpu, t.wrData, t.done = opCPUVic, line, cpu, data, done
	d.request(line, EvCPUVic, t)
}

// --- DMA side ---

// DMARead services a DMA engine read.
func (d *Directory) DMARead(line mem.Addr, done func([]byte)) {
	t := d.getTBE()
	t.op, t.line, t.doneData = opDMARd, line, done
	d.request(line, EvDMARd, t)
}

// DMAWrite services a DMA engine write.
func (d *Directory) DMAWrite(line mem.Addr, data []byte, done func()) {
	t := d.getTBE()
	t.op, t.line, t.wrData, t.done = opDMAWr, line, data, done
	d.request(line, EvDMAWr, t)
}

// --- transaction engine ---

func (d *Directory) begin(t *tbe, st int) {
	d.tbes.Put(t.line, t)
	switch st {
	case StateG:
		switch {
		case t.op >= opCPURd:
			// CPU and DMA ops displace every GPU copy.
			d.probeGPUs(t, -1)
		case t.op == opGPUWr || t.op == opGPUAt:
			// A write or atomic from one GPU invalidates the *other*
			// GPUs' L2 copies (write-through keeps the requester's own
			// slice coherent).
			d.probeGPUs(t, t.gpu)
		}
	case StateCS, StateCM:
		switch t.op {
		case opCPURd:
			if o := d.ownerOf(t.line); o >= 0 {
				d.probeCPU(t, o, false)
			}
		case opCPURdX:
			d.probeAllCPUs(t, t.cpu)
		case opCPUVic:
			// The victim's data is already in hand; no probes.
		default: // GPU and DMA ops clean out every CPU copy
			d.probeAllCPUs(t, -1)
		}
	}
	if t.probesOut == 0 {
		d.afterProbes(t)
	}
}

// probeGPUs invalidates every GPU holder of t.line except `except`
// (-1 probes all). Bitmask iteration walks holders in ascending ID
// order.
func (d *Directory) probeGPUs(t *tbe, except int) {
	hs, _ := d.gpuHolders.Get(t.line)
	if except >= 0 {
		hs &^= 1 << uint(except)
	}
	line := t.line
	for rest := hs; rest != 0; rest &= rest - 1 {
		id := bits.TrailingZeros64(rest)
		t.probesOut++
		d.probes++
		d.k.Schedule(d.probeLatency, func() {
			d.gpus[id].ProbeInv(line, func() {
				d.k.Schedule(d.probeLatency, func() {
					clearBit(&d.gpuHolders, line, id)
					d.probeAck(t, nil, false, -1, true)
				})
			})
		})
	}
}

// clearBit drops port id from line's mask, and the entry with its last
// bit.
func clearBit(masks *table.Table[mem.Addr, uint64], line mem.Addr, id int) {
	if m := masks.Ptr(line); m != nil {
		if *m &^= 1 << uint(id); *m == 0 {
			masks.Delete(line)
		}
	}
}

func (d *Directory) probeAllCPUs(t *tbe, except int) {
	ids, _ := d.sharers.Get(t.line)
	if o := d.ownerOf(t.line); o >= 0 {
		ids |= 1 << uint(o)
	}
	if except >= 0 {
		ids &^= 1 << uint(except)
	}
	for rest := ids; rest != 0; rest &= rest - 1 {
		d.probeCPU(t, bits.TrailingZeros64(rest), true)
	}
}

func (d *Directory) probeCPU(t *tbe, cpu int, inv bool) {
	t.probesOut++
	d.probes++
	line := t.line
	d.k.Schedule(d.probeLatency, func() {
		d.cpus[cpu].Probe(line, inv, func(dirty []byte, fromVic bool) {
			d.k.Schedule(d.probeLatency, func() {
				if inv {
					clearBit(&d.sharers, line, cpu)
					if d.ownerOf(line) == cpu {
						d.owner.Delete(line)
					}
				} else {
					// Downgrade probe: a clean or vic'd answer means no
					// dirty owner remains.
					if dirty == nil || fromVic {
						d.owner.Delete(line)
					}
					if fromVic {
						clearBit(&d.sharers, line, cpu)
					}
				}
				d.probeAck(t, dirty, fromVic, cpu, inv)
			})
		})
	})
}

func (d *Directory) probeAck(t *tbe, dirty []byte, fromVic bool, _ int, inv bool) {
	switch {
	case dirty != nil && t.op == opCPURd && !inv && !fromVic:
		// The owner keeps an O copy and serves the data; memory may
		// stay stale while an owner exists.
		d.machine.Fire(StateB, EvPrbAckOwned)
		t.serve = dirty
	case dirty != nil:
		d.machine.Fire(StateB, EvPrbAckData)
		t.dirty = dirty
	default:
		d.machine.Fire(StateB, EvPrbAckClean)
	}
	t.probesOut--
	if t.probesOut == 0 {
		d.afterProbes(t)
	}
}

// afterProbes flushes collected dirty data to memory, then runs the
// operation's own memory phase.
func (d *Directory) afterProbes(t *tbe) {
	if t.dirty != nil {
		data := t.dirty
		t.dirty = nil
		wl := d.lines.Get(len(data))
		copy(wl.Data, data)
		d.mem.WriteLine(t.line, wl, d.onDirtyWB, t)
		return
	}
	d.memPhase(t)
}

// borrowWrite copies borrowed bytes into a pool line and issues the
// masked-less write: the caller's buffer is free to be reused the
// moment this returns, matching the old controller's copy-at-enqueue
// contract that CPU caches and the DMA engine rely on.
func (d *Directory) borrowWrite(line mem.Addr, data []byte, t *tbe) {
	wl := d.lines.Get(len(data))
	copy(wl.Data, data)
	d.mem.WriteLine(line, wl, d.onWriteDone, t)
}

func (d *Directory) memPhase(t *tbe) {
	switch t.op {
	case opGPURd:
		d.mem.ReadLine(t.line, d.lineSize, d.onGPUFill, t)
	case opDMARd:
		d.mem.ReadLine(t.line, d.lineSize, d.onReadData, t)
	case opCPURd:
		if t.serve != nil {
			d.complete(t, t.serve)
			return
		}
		d.mem.ReadLine(t.line, d.lineSize, d.onReadData, t)
	case opCPURdX:
		if t.upgrade {
			d.complete(t, nil)
			return
		}
		d.mem.ReadLine(t.line, d.lineSize, d.onReadData, t)
	case opGPUWr:
		// The GPU's payload handle passes through to the controller
		// untouched — the zero-copy write path.
		wl := t.wrLine
		t.wrLine = nil
		d.mem.WriteLine(t.line, wl, d.onWriteDone, t)
	case opCPUVic, opDMAWr:
		d.borrowWrite(t.line, t.wrData, t)
	case opGPUAt:
		d.mem.Atomic(t.atAddr, t.delta, d.onAtomicOld, t)
	case opGPUClean:
		d.complete(t, nil)
	}
}

// completeGPUFill finishes a GPU read: holder bookkeeping, then the
// data handle transfers to the requesting L2 without a copy.
func (d *Directory) completeGPUFill(t *tbe, data *mem.Line) {
	line := t.line
	d.tbes.Delete(line)
	*d.gpuHolders.Slot(line) |= 1 << uint(t.gpu)
	d.pushResp(pendingResp{kind: respGPUFill, fn: t.doneGPUData, line: data, gctx: t.gctx})
	d.putTBE(t)
	d.wake(line)
}

func (d *Directory) complete(t *tbe, data []byte) {
	d.tbes.Delete(t.line)
	line := t.line
	switch t.op {
	case opGPUWr:
		d.pushResp(pendingResp{kind: respGPUWr, fn: t.doneGPU, gctx: t.gctx})
	case opDMAWr:
		d.pushResp(pendingResp{kind: respPlain, fn: t.done})
	case opDMARd:
		d.respondData(t, data)
	case opCPURd:
		kind := FillS
		ss := d.sharers.Slot(line)
		if *ss == 0 && d.ownerOf(line) < 0 {
			kind = FillE
			d.owner.Put(line, t.cpu)
		}
		*ss |= 1 << uint(t.cpu)
		d.respondCPU(t, data, kind)
	case opCPURdX:
		d.sharers.Put(line, 1<<uint(t.cpu))
		d.owner.Put(line, t.cpu)
		d.respondCPU(t, data, FillM)
	case opCPUVic:
		d.owner.Delete(line)
		clearBit(&d.sharers, line, t.cpu)
		d.pushResp(pendingResp{kind: respPlain, fn: t.done})
	case opGPUAt, opGPUClean:
		// opGPUAt responds from its memory-phase callback (it needs the
		// old value); opGPUClean has no requester.
	}
	d.putTBE(t)
	d.wake(line)
}

func (d *Directory) respondData(t *tbe, data []byte) {
	buf := make([]byte, len(data))
	copy(buf, data)
	d.pushResp(pendingResp{kind: respData, fn: t.doneData, buf: buf})
}

func (d *Directory) respondCPU(t *tbe, data []byte, kind FillKind) {
	var buf []byte
	if data != nil {
		buf = make([]byte, len(data))
		copy(buf, data)
	}
	d.pushResp(pendingResp{kind: respCPU, fn: t.doneCPU, buf: buf, cpuKind: kind})
}

func (d *Directory) wake(line mem.Addr) {
	queue, ok := d.stalled.Get(line)
	if !ok {
		return
	}
	d.stalled.Delete(line)
	for i, r := range queue {
		queue[i] = stalledReq{}
		d.request(line, r.ev, r.t)
	}
	d.stallFree = append(d.stallFree, queue[:0])
}

// DebugDump renders the directory's live state for diagnosing hangs.
func (d *Directory) DebugDump() string {
	out := ""
	d.tbes.Each(func(line mem.Addr, tp **tbe) {
		t := *tp
		out += fmt.Sprintf("TBE line=%#x op=%d gpu=%d cpu=%d probesOut=%d\n", uint64(line), t.op, t.gpu, t.cpu, t.probesOut)
	})
	d.stalled.Each(func(line mem.Addr, q *[]stalledReq) {
		out += fmt.Sprintf("stalled line=%#x count=%d\n", uint64(line), len(*q))
	})
	d.gpuHolders.Each(func(line mem.Addr, hs *uint64) {
		out += fmt.Sprintf("holders line=%#x mask=%#x\n", uint64(line), *hs)
	})
	if n := len(d.respQ) - d.respHead; n > 0 {
		out += fmt.Sprintf("responses queued=%d\n", n)
	}
	return out
}
