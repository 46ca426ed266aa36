package directory

import (
	"fmt"
	"math/bits"

	"drftest/internal/mem"
	"drftest/internal/memctrl"
	"drftest/internal/network"
	"drftest/internal/protocol"
	"drftest/internal/sim"
	"drftest/internal/table"
)

// The directory's ports. Each method is one message's arrival, and
// every byte slice that crosses a port is borrowed for that one call:
// the receiver copies what it keeps. The directory copies a probe's
// dirty data and a write-back's or DMA write's payload into lines of
// its own pool on arrival; a cache copies a fill into its array.

// CPUPort is a CPU cache as the directory sees it.
type CPUPort interface {
	// Probe asks the cache to invalidate (inv) or downgrade (!inv) the
	// line and returns its answer: the dirty line data (nil if clean),
	// and fromVic when the data came from a pending write-back rather
	// than a live copy.
	Probe(line mem.Addr, inv bool) (dirty []byte, fromVic bool)
	// Fill answers CPURead and CPUReadX with the permission kind grants
	// (data is nil for an upgrade: the cache keeps its bytes).
	Fill(line mem.Addr, data []byte, kind FillKind)
	// WriteBackDone acknowledges CPUWriteBack.
	WriteBackDone(line mem.Addr)
}

// GPUPort is the GPU L2 as the directory sees it.
type GPUPort interface {
	// ProbeInv invalidates the line and calls done(ctx) once the L2 has
	// given up its copy, which a busy line may delay. done is the
	// directory's prebound handler.
	ProbeInv(line mem.Addr, done func(any), ctx any)
}

// DMAPort is a DMA engine as the directory sees it.
type DMAPort interface {
	// DMADone completes the DMARead or DMAWrite issued with ctx; a
	// read's data is borrowed for the call, a write's is nil.
	DMADone(data []byte, ctx any)
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
// needs is in here, and a line's stalled TBEs queue through their own
// next links, so a stall and its wake allocate nothing.
type tbe struct {
	op   dirOp
	line mem.Addr
	port int // requesting CPU or DMA port
	gpu  int // requesting GPU for GPU ops

	probesOut int
	dirty     *mem.Line // probe data that must reach memory
	serve     *mem.Line // probe data served directly (owner keeps O)
	have      bool      // CPURdX requester believes it holds a copy
	upgrade   bool      // CPURdX by an existing sharer: no data needed

	// wrLine is a write's payload: a GPU write-through's handle, or the
	// directory's copy of a CPU victim or DMA write. The TBE owns it
	// until the memory phase hands it to the controller.
	wrLine *mem.Line
	atAddr mem.Addr
	delta  uint32

	// GPU completions are the requester's prebound callbacks; a GPU or
	// DMA requester's opaque ctx rides along. The fill transfers a line
	// handle the callee then owns.
	doneGPUData func(*mem.Line, any)
	doneGPU     func(any)
	doneAt      func(uint32, bool, any)
	ctx         any

	// A stalled TBE waits to re-fire ev behind next in its line's queue.
	ev   int
	next *tbe
}

// stallQueue is a line's FIFO of stalled TBEs.
type stallQueue struct {
	head, tail *tbe
	n          int
}

// probe is one probe in flight: out to a cache on probeLink, back with
// the cache's answer on ackLink. Records come from the directory's free
// list.
type probe struct {
	t    *tbe
	port int // the probed CPU or GPU
	gpu  bool
	inv  bool
	line mem.Addr
	// The answer: dirty is the directory's copy of the cache's dirty
	// data (nil if clean), handed to the TBE on arrival.
	dirty   *mem.Line
	fromVic bool
}

// resp is one response in flight to a requester on respLink. Records
// come from the directory's free list.
type resp struct {
	kind uint8
	port int // CPU or DMA port
	line mem.Addr
	nack bool
	fill FillKind
	old  uint32
	// data is a read's payload: a GPU fill's handle transfers to the
	// L2; a CPU or DMA requester borrows it for the delivery call, after
	// which the directory releases it.
	data    *mem.Line
	gpuFill func(*mem.Line, any)
	gpuDone func(any)
	gpuAt   func(uint32, bool, any)
	ctx     any
}

const (
	respGPUFill uint8 = iota
	respGPUWr
	respAtomic
	respCPUFill
	respCPUWB
	respDMA
)

// Directory is the blocking CPU–GPU–DMA system directory. It
// implements the GPU L2's backend interface (FetchLine / WriteLine /
// Atomic) structurally, so a viper system can be built directly on it.
//
// Every message the directory sends or receives from a cache rides a
// zero-jitter network.Link with a prebound handler: probes out on
// probeLink, answers back on ackLink (both probeLatency), responses out
// on respLink (respLatency). Each message is one kernel event.
type Directory struct {
	k        *sim.Kernel
	machine  *protocol.Machine
	mem      *memctrl.Controller
	lineSize int
	// lines supplies the directory's own payload copies: probe answers,
	// CPU victims and DMA writes. GPU payloads arrive as handles and
	// pass through untouched.
	lines *mem.LinePool

	probeLink *network.Link
	ackLink   *network.Link
	respLink  *network.Link

	gpus []GPUPort
	cpus []CPUPort
	dmas []DMAPort

	// gpuHolders is the bitmask of GPU L2s that may hold each line;
	// multi-GPU systems probe the *other* L2s on writes and atomics
	// (Table II's "invalidation request from other L2"). sharers is
	// the same for CPU caches. A line with no holder, sharer or owner
	// has no entry.
	gpuHolders table.Table[mem.Addr, uint64]
	sharers    table.Table[mem.Addr, uint64]
	owner      table.Table[mem.Addr, int]
	tbes       table.Table[mem.Addr, *tbe]
	stalled    table.Table[mem.Addr, stallQueue]

	// Free lists: retired TBEs and delivered messages cycle back through
	// these instead of the heap.
	tbeFree   []*tbe
	probeFree []*probe
	respFree  []*resp

	// Prebound link handlers; the message record rides as the argument.
	onProbe     func(any)
	onGPUProbed func(any)
	onProbeAck  func(any)
	onResp      func(any)

	// Prebound memory-controller callbacks; the TBE rides as ctx.
	onGPUFill   func(*mem.Line, any)
	onReadData  func(*mem.Line, any)
	onWriteDone func(any)
	onDirtyWB   func(any)
	onAtomicOld func(uint32, bool, any)

	// stats
	nacks, probes, staleVics uint64
}

// Interconnect latencies of the directory's hops.
const (
	probeLatency sim.Tick = 8
	respLatency  sim.Tick = 8
)

// New builds a directory over ctrl with the given line size.
func New(k *sim.Kernel, rec protocol.Recorder, onFault func(*protocol.FaultError), ctrl *memctrl.Controller, lineSize int) *Directory {
	m := protocol.NewMachine(NewSpec(), rec)
	m.OnFault = onFault
	d := &Directory{
		k:         k,
		machine:   m,
		mem:       ctrl,
		lineSize:  lineSize,
		lines:     mem.NewLinePool(lineSize),
		probeLink: network.NewLink(k, "directory.probe", probeLatency),
		ackLink:   network.NewLink(k, "directory.ack", probeLatency),
		respLink:  network.NewLink(k, "directory.resp", respLatency),
	}
	d.onProbe = d.deliverProbe
	d.onGPUProbed = func(arg any) { d.ackLink.SendMsg(d.onProbeAck, arg) }
	d.onProbeAck = d.deliverProbeAck
	d.onResp = d.deliverResp
	d.onGPUFill = func(data *mem.Line, ctx any) {
		t := ctx.(*tbe)
		d.machine.Fire(StateB, EvMemData)
		d.completeGPUFill(t, data)
	}
	d.onReadData = func(data *mem.Line, ctx any) {
		t := ctx.(*tbe)
		d.machine.Fire(StateB, EvMemData)
		d.complete(t, data)
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
		fn, gctx := t.doneAt, t.ctx
		// complete recycles the TBE and runs stalled retries; the
		// response is sent after so event order matches the retries'.
		d.complete(t, nil)
		r := d.getResp(respAtomic)
		r.gpuAt, r.old, r.ctx = fn, old, gctx
		d.respLink.SendMsg(d.onResp, r)
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

// AttachDMA registers a DMA engine and returns its port ID.
func (d *Directory) AttachDMA(e DMAPort) int {
	d.dmas = append(d.dmas, e)
	return len(d.dmas) - 1
}

// Reset returns the directory to its just-built state and keeps its
// wiring (ports, links, controller, prebound callbacks) and its
// storage: the line tables, TBEs, stall queues and links are emptied in
// place, the stats zeroed, and the line pool re-parks every line.
// Messages still in flight are dropped with their links' queues. The
// kernel must be reset first: its pending events reference the TBEs and
// messages dropped here. The memory controller is its owner's to reset.
func (d *Directory) Reset() {
	d.gpuHolders.Clear()
	d.sharers.Clear()
	d.owner.Clear()
	d.tbes.Clear()
	d.stalled.Clear()
	d.probeLink.Reset()
	d.ackLink.Reset()
	d.respLink.Reset()
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

// tbeChunk is how many TBEs a dry free list takes from the heap at
// once: a system climbs to its peak of concurrent transactions, tens to
// hundreds, in a few allocations rather than one per TBE.
const tbeChunk = 16

func (d *Directory) getTBE() *tbe {
	if len(d.tbeFree) == 0 {
		chunk := make([]tbe, tbeChunk)
		for i := range chunk {
			d.tbeFree = append(d.tbeFree, &chunk[i])
		}
	}
	n := len(d.tbeFree)
	t := d.tbeFree[n-1]
	d.tbeFree = d.tbeFree[:n-1]
	return t
}

func (d *Directory) putTBE(t *tbe) {
	*t = tbe{}
	d.tbeFree = append(d.tbeFree, t)
}

func (d *Directory) getResp(kind uint8) *resp {
	var r *resp
	if n := len(d.respFree); n > 0 {
		r = d.respFree[n-1]
		d.respFree = d.respFree[:n-1]
	} else {
		r = &resp{}
	}
	r.kind = kind
	return r
}

// deliverResp completes one response at its requester and recycles the
// record.
func (d *Directory) deliverResp(arg any) {
	r := arg.(*resp)
	var data []byte // a CPU or DMA read's payload, borrowed for the call
	if r.data != nil {
		data = r.data.Data
	}
	switch r.kind {
	case respGPUFill:
		r.gpuFill(r.data, r.ctx)
		r.data = nil // the handle now belongs to the L2
	case respGPUWr:
		r.gpuDone(r.ctx)
	case respAtomic:
		r.gpuAt(r.old, r.nack, r.ctx)
	case respCPUFill:
		d.cpus[r.port].Fill(r.line, data, r.fill)
	case respCPUWB:
		d.cpus[r.port].WriteBackDone(r.line)
	case respDMA:
		d.dmas[r.port].DMADone(data, r.ctx)
	}
	if r.data != nil {
		r.data.Release()
	}
	*r = resp{}
	d.respFree = append(d.respFree, r)
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
		t.ev = ev
		if q.tail == nil {
			q.head = t
		} else {
			q.tail.next = t
		}
		q.tail = t
		q.n++
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
		t.upgrade = t.have && ss&(1<<uint(t.port)) != 0
	case opCPUVic:
		// Write-backs that lost a race with a probe (the directory no
		// longer believes t.port owns the line) are acknowledged without
		// touching memory.
		if st != StateCM || d.ownerOf(t.line) != t.port {
			d.staleVics++
			r := d.getResp(respCPUWB)
			r.port, r.line = t.port, t.line
			d.respLink.SendMsg(d.onResp, r)
			t.wrLine.Release()
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
	t.op, t.line, t.gpu, t.doneGPUData, t.ctx = opGPURd, line, gpu, done, ctx
	d.request(line, EvGPURd, t)
}

func (d *Directory) gpuWrite(gpu int, line mem.Addr, payload *mem.Line, done func(any), ctx any) {
	t := d.getTBE()
	t.op, t.line, t.gpu, t.wrLine, t.doneGPU, t.ctx = opGPUWr, line, gpu, payload, done, ctx
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
	case StateB, StateCS, StateCM:
		d.nacks++
		r := d.getResp(respAtomic)
		r.gpuAt, r.nack, r.ctx = done, true, ctx
		d.respLink.SendMsg(d.onResp, r)
		if st != StateB {
			t := d.getTBE()
			t.op, t.line, t.gpu = opGPUClean, line, gpu
			d.begin(t, st)
		}
	default:
		t := d.getTBE()
		t.op, t.line, t.gpu = opGPUAt, line, gpu
		t.atAddr, t.delta, t.doneAt, t.ctx = addr, delta, done, ctx
		d.begin(t, st)
	}
}

// --- CPU side ---

// CPURead services a CPU load miss; the fill arrives at the port's
// Fill.
func (d *Directory) CPURead(cpu int, line mem.Addr) {
	t := d.getTBE()
	t.op, t.line, t.port = opCPURd, line, cpu
	d.request(line, EvCPURd, t)
}

// CPUReadX services a CPU store miss or upgrade. have reports whether
// the requester still holds a valid copy; only when both the requester
// and the directory agree is the fill an upgrade (nil data) — see
// start. A stale upgrade is still accepted but serviced as a full
// exclusive fill.
func (d *Directory) CPUReadX(cpu int, line mem.Addr, have bool) {
	ev := EvCPURdX
	if have {
		ev = EvCPUUpg
	}
	t := d.getTBE()
	t.op, t.line, t.port, t.have = opCPURdX, line, cpu, have
	d.request(line, ev, t)
}

// CPUWriteBack services a dirty victim (stale victims are filtered in
// start); data is borrowed for the call. The acknowledgement arrives at
// the port's WriteBackDone.
func (d *Directory) CPUWriteBack(cpu int, line mem.Addr, data []byte) {
	t := d.getTBE()
	t.op, t.line, t.port, t.wrLine = opCPUVic, line, cpu, d.copyLine(data)
	d.request(line, EvCPUVic, t)
}

// --- DMA side ---

// DMARead services a DMA engine read; the data arrives at the port's
// DMADone with ctx.
func (d *Directory) DMARead(dma int, line mem.Addr, ctx any) {
	t := d.getTBE()
	t.op, t.line, t.port, t.ctx = opDMARd, line, dma, ctx
	d.request(line, EvDMARd, t)
}

// DMAWrite services a DMA engine write; data is borrowed for the call.
func (d *Directory) DMAWrite(dma int, line mem.Addr, data []byte, ctx any) {
	t := d.getTBE()
	t.op, t.line, t.port, t.wrLine, t.ctx = opDMAWr, line, dma, d.copyLine(data), ctx
	d.request(line, EvDMAWr, t)
}

// copyLine copies borrowed bytes into a line of the directory's pool.
func (d *Directory) copyLine(data []byte) *mem.Line {
	l := d.lines.Get(len(data))
	copy(l.Data, data)
	return l
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
				d.sendProbe(t, o, false, false)
			}
		case opCPURdX:
			d.probeAllCPUs(t, t.port)
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
	for rest := hs; rest != 0; rest &= rest - 1 {
		d.sendProbe(t, bits.TrailingZeros64(rest), true, true)
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
		d.sendProbe(t, bits.TrailingZeros64(rest), false, true)
	}
}

// sendProbe sends one probe of t.line to a GPU's L2 or a CPU cache.
func (d *Directory) sendProbe(t *tbe, port int, gpu, inv bool) {
	t.probesOut++
	d.probes++
	var p *probe
	if n := len(d.probeFree); n > 0 {
		p = d.probeFree[n-1]
		d.probeFree = d.probeFree[:n-1]
	} else {
		p = &probe{}
	}
	p.t, p.port, p.gpu, p.inv, p.line = t, port, gpu, inv, t.line
	d.probeLink.SendMsg(d.onProbe, p)
}

// deliverProbe is a probe's arrival at its cache. A CPU answers on the
// spot; the directory copies any dirty data and sends the answer back.
// A GPU's L2 answers through onGPUProbed once it has let go of the line.
func (d *Directory) deliverProbe(arg any) {
	p := arg.(*probe)
	if p.gpu {
		d.gpus[p.port].ProbeInv(p.line, d.onGPUProbed, p)
		return
	}
	dirty, fromVic := d.cpus[p.port].Probe(p.line, p.inv)
	if dirty != nil {
		p.dirty = d.copyLine(dirty)
	}
	p.fromVic = fromVic
	d.ackLink.SendMsg(d.onProbeAck, p)
}

// deliverProbeAck is a probe answer's arrival back at the directory:
// the prober's holder and sharer bookkeeping, then the transaction's.
func (d *Directory) deliverProbeAck(arg any) {
	p := arg.(*probe)
	t, line, port, gpu, inv, dirty, fromVic := p.t, p.line, p.port, p.gpu, p.inv, p.dirty, p.fromVic
	*p = probe{}
	d.probeFree = append(d.probeFree, p)
	switch {
	case gpu:
		clearBit(&d.gpuHolders, line, port)
	case inv:
		clearBit(&d.sharers, line, port)
		if d.ownerOf(line) == port {
			d.owner.Delete(line)
		}
	default:
		// Downgrade probe: a clean or vic'd answer means no dirty owner
		// remains.
		if dirty == nil || fromVic {
			d.owner.Delete(line)
		}
		if fromVic {
			clearBit(&d.sharers, line, port)
		}
	}
	d.probeAck(t, dirty, fromVic, inv)
}

// probeAck counts one answer in; dirty (the directory's copy, or nil)
// passes to the TBE.
func (d *Directory) probeAck(t *tbe, dirty *mem.Line, fromVic, inv bool) {
	switch {
	case dirty != nil && t.op == opCPURd && !inv && !fromVic:
		// The owner keeps an O copy and serves the data; memory may
		// stay stale while an owner exists.
		d.machine.Fire(StateB, EvPrbAckOwned)
		t.serve = replaceLine(t.serve, dirty)
	case dirty != nil:
		d.machine.Fire(StateB, EvPrbAckData)
		t.dirty = replaceLine(t.dirty, dirty)
	default:
		d.machine.Fire(StateB, EvPrbAckClean)
	}
	t.probesOut--
	if t.probesOut == 0 {
		d.afterProbes(t)
	}
}

// replaceLine releases old, if any, and returns l: a later answer's
// data supersedes an earlier one's.
func replaceLine(old, l *mem.Line) *mem.Line {
	if old != nil {
		old.Release()
	}
	return l
}

// afterProbes flushes collected dirty data to memory, then runs the
// operation's own memory phase.
func (d *Directory) afterProbes(t *tbe) {
	if t.dirty != nil {
		wl := t.dirty
		t.dirty = nil
		d.mem.WriteLine(t.line, wl, d.onDirtyWB, t)
		return
	}
	d.memPhase(t)
}

func (d *Directory) memPhase(t *tbe) {
	switch t.op {
	case opGPURd:
		d.mem.ReadLine(t.line, d.lineSize, d.onGPUFill, t)
	case opDMARd:
		d.mem.ReadLine(t.line, d.lineSize, d.onReadData, t)
	case opCPURd:
		if t.serve != nil {
			serve := t.serve
			t.serve = nil
			d.complete(t, serve)
			return
		}
		d.mem.ReadLine(t.line, d.lineSize, d.onReadData, t)
	case opCPURdX:
		if t.upgrade {
			d.complete(t, nil)
			return
		}
		d.mem.ReadLine(t.line, d.lineSize, d.onReadData, t)
	case opGPUWr, opCPUVic, opDMAWr:
		// The payload handle passes to the controller untouched — the
		// zero-copy write path.
		wl := t.wrLine
		t.wrLine = nil
		d.mem.WriteLine(t.line, wl, d.onWriteDone, t)
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
	r := d.getResp(respGPUFill)
	r.gpuFill, r.data, r.ctx = t.doneGPUData, data, t.ctx
	d.respLink.SendMsg(d.onResp, r)
	d.putTBE(t)
	d.wake(line)
}

// complete finishes a transaction. data, a read's payload, transfers
// to the response.
func (d *Directory) complete(t *tbe, data *mem.Line) {
	d.tbes.Delete(t.line)
	line := t.line
	var r *resp
	switch t.op {
	case opGPUWr:
		r = d.getResp(respGPUWr)
		r.gpuDone, r.ctx = t.doneGPU, t.ctx
	case opDMAWr, opDMARd:
		r = d.getResp(respDMA)
		r.port, r.data, r.ctx = t.port, data, t.ctx
	case opCPURd:
		kind := FillS
		ss := d.sharers.Slot(line)
		if *ss == 0 && d.ownerOf(line) < 0 {
			kind = FillE
			d.owner.Put(line, t.port)
		}
		*ss |= 1 << uint(t.port)
		r = d.getResp(respCPUFill)
		r.port, r.line, r.data, r.fill = t.port, line, data, kind
	case opCPURdX:
		d.sharers.Put(line, 1<<uint(t.port))
		d.owner.Put(line, t.port)
		r = d.getResp(respCPUFill)
		r.port, r.line, r.data, r.fill = t.port, line, data, FillM
	case opCPUVic:
		d.owner.Delete(line)
		clearBit(&d.sharers, line, t.port)
		r = d.getResp(respCPUWB)
		r.port, r.line = t.port, line
	case opGPUAt, opGPUClean:
		// opGPUAt responds from its memory-phase callback (it needs the
		// old value); opGPUClean has no requester.
	}
	if r != nil {
		d.respLink.SendMsg(d.onResp, r)
	}
	d.putTBE(t)
	d.wake(line)
}

// wake re-fires line's stalled requests in arrival order. The queue is
// unmapped first, so a retry that stalls again starts a new one.
func (d *Directory) wake(line mem.Addr) {
	q, ok := d.stalled.Get(line)
	if !ok {
		return
	}
	d.stalled.Delete(line)
	for t := q.head; t != nil; {
		next := t.next
		t.next = nil
		d.request(line, t.ev, t)
		t = next
	}
}

// DebugDump renders the directory's live state for diagnosing hangs.
func (d *Directory) DebugDump() string {
	out := ""
	d.tbes.Each(func(line mem.Addr, tp **tbe) {
		t := *tp
		out += fmt.Sprintf("TBE line=%#x op=%d gpu=%d port=%d probesOut=%d\n", uint64(line), t.op, t.gpu, t.port, t.probesOut)
	})
	d.stalled.Each(func(line mem.Addr, q *stallQueue) {
		out += fmt.Sprintf("stalled line=%#x count=%d\n", uint64(line), q.n)
	})
	d.gpuHolders.Each(func(line mem.Addr, hs *uint64) {
		out += fmt.Sprintf("holders line=%#x mask=%#x\n", uint64(line), *hs)
	})
	if n := d.respLink.Queued(); n > 0 {
		out += fmt.Sprintf("responses queued=%d\n", n)
	}
	return out
}
