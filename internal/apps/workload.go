package apps

import (
	"drftest/internal/gpucore"
	"drftest/internal/mem"
	"drftest/internal/rng"
)

// SharedRegionBase is where every workload's inter-WF shared buffer
// lives; host-side drivers touch the same region to create CPU↔GPU
// sharing in heterogeneous runs.
const SharedRegionBase mem.Addr = 0x0001_0000

// StreamRegionBase is where wavefront 0's streaming output begins —
// the natural source for a result-copying DMA transfer.
const StreamRegionBase mem.Addr = 0x1000_0000

// Memory layout constants for generated traces. Each workload gets
// disjoint shared, per-WF private, streaming and synchronization
// regions, mirroring how real kernels separate their buffers.
const (
	sharedBase           = SharedRegionBase
	privateBase mem.Addr = 0x0100_0000
	streamBase  mem.Addr = 0x1000_0000
	interBase   mem.Addr = 0x0800_0000
	syncBase    mem.Addr = 0x0000_1000

	privateRegion mem.Addr = 1 << 16 // per-WF private window
	streamRegion  mem.Addr = 1 << 22 // per-WF streaming window
	numSyncWords           = 16
)

// Workload instantiates a Profile as per-wavefront instruction streams.
// Everything it holds — RNG, tracker, programs — is held by value, so a
// reset workload reuses the storage of the run before.
type Workload struct {
	Prof     Profile
	lineSize int
	lanes    int
	numWFs   int
	rnd      rng.PCG
	tracker  LocalityTracker
	nextID   uint64
	progs    []wfProgram
}

// reset readies w for numWFs wavefronts of `lanes` threads over
// lineSize-byte cache lines, in w's own storage: the tracker's table is
// cleared, not regrown, and the programs keep their request arrays.
func (w *Workload) reset(prof Profile, seed uint64, lineSize, lanes, numWFs int) {
	w.Prof, w.lineSize, w.lanes, w.numWFs, w.nextID = prof, lineSize, lanes, numWFs, 0
	w.rnd.Seed(seed, uint64(len(prof.Name))<<8|0xA9)
	w.tracker.reset(lineSize)
	if cap(w.progs) < numWFs {
		w.progs = make([]wfProgram, numWFs)
	}
	w.progs = w.progs[:numWFs]
}

// Tracker exposes the locality profile collected while generating.
func (w *Workload) Tracker() *LocalityTracker { return &w.tracker }

// Program returns wavefront wf's instruction stream (wf is the global
// wavefront index). Each wavefront has one program, reset by this call:
// call it once per wavefront, in wavefront order, as each splits its
// RNG stream off the workload's.
func (w *Workload) Program(wf int) gpucore.Program {
	p := &w.progs[wf]
	p.w, p.wf, p.opsDone, p.streamCursor, p.interCursor = w, wf, 0, 0, 0
	w.rnd.SplitTo(&p.rnd)
	if len(p.reqs) != w.lanes {
		p.reqs = make([]mem.Request, w.lanes)
		p.reqPtrs = make([]*mem.Request, w.lanes)
		for i := range p.reqs {
			p.reqPtrs[i] = &p.reqs[i]
		}
	}
	return p
}

type wfProgram struct {
	w            *Workload
	wf           int
	rnd          rng.PCG
	opsDone      int
	streamCursor mem.Addr
	interCursor  mem.Addr

	// Per-lane request storage, reused for every memory instruction.
	// Safe because the core resumes a wavefront (and calls Next again)
	// only after every lane of the previous instruction completed, and
	// the only pointer the memory system retains past completion — the
	// in-flight write-through ack — reads just ThreadID, which is
	// lane-stable (see gpucore.Program).
	reqs    []mem.Request
	reqPtrs []*mem.Request
	// lineScratch dedups the distinct lines one SIMT instruction
	// touches (at most lanes entries, usually 1-2).
	lineScratch []mem.Addr
}

// Next implements gpucore.Program.
func (p *wfProgram) Next() (int, gpucore.MemOp, bool) {
	w := p.w
	prof := w.Prof
	if p.opsDone >= prof.MemOpsPerLane {
		return 0, gpucore.MemOp{}, true
	}
	p.opsDone++

	alu := prof.ALUPerMem/2 + p.rnd.Intn(prof.ALUPerMem+1)

	if p.rnd.Bool(prof.AtomicFrac) {
		return alu, p.atomicOp(), false
	}
	return alu, p.plainOp(), false
}

// atomicOp emits a per-lane atomic on the workload's sync words
// (spread one per cache line, as padded locks are), with occasional
// acquire/release semantics as synchronization code has.
func (p *wfProgram) atomicOp() gpucore.MemOp {
	op := gpucore.MemOp{Reqs: p.reqPtrs}
	p.lineScratch = p.lineScratch[:0]
	for l := range op.Reqs {
		addr := syncBase + mem.Addr(p.rnd.Intn(numSyncWords)*p.w.lineSize)
		p.noteLine(mem.LineAddr(addr, p.w.lineSize))
		req := p.newReq(l, addr)
		req.Op = mem.OpAtomic
		req.Operand = 1
		switch p.rnd.Intn(3) {
		case 0:
			req.Acquire = true
		case 1:
			req.Release = true
		}
	}
	p.trackOp()
	return op
}

// plainOp emits a SIMT load or store whose addresses follow the
// profile's locality mix. Reuse classes are realized structurally:
// streaming walks fresh per-WF lines; intra-WF revisits a small per-WF
// private set; inter-WF walks a region every wavefront traverses
// exactly once; mixed-WF hammers a small set shared by all wavefronts.
func (p *wfProgram) plainOp() gpucore.MemOp {
	prof := p.w.Prof
	class := []LocalityClass{ClassStreaming, ClassIntraWF, ClassInterWF, ClassMixWF}[p.rnd.WeightedChoice([]float64{
		prof.Streaming, prof.IntraWF, prof.InterWF, prof.MixWF,
	})]
	isStore := p.rnd.Bool(prof.StoreFrac)

	op := gpucore.MemOp{Reqs: p.reqPtrs}
	var base mem.Addr
	coalesced := false
	switch class {
	case ClassStreaming:
		// Fresh coalesced line per op: lanes stride word-wise.
		base = streamBase + mem.Addr(p.wf)*streamRegion + p.streamCursor
		p.streamCursor += mem.Addr(p.w.lineSize)
		coalesced = true
	case ClassIntraWF:
		base = p.privateLine()
	case ClassInterWF:
		// Every wavefront walks the common region once, at its own
		// pace: each line is used by many WFs but only once per WF.
		base = interBase + p.interCursor
		p.interCursor += mem.Addr(p.w.lineSize)
		coalesced = true
	case ClassMixWF:
		base = p.sharedLine()
	}
	wordsPerLine := p.w.lineSize / mem.WordSize
	p.lineScratch = p.lineScratch[:0]
	for l := range op.Reqs {
		var addr mem.Addr
		if coalesced {
			addr = base + mem.Addr((l%wordsPerLine)*mem.WordSize)
		} else {
			addr = base + mem.Addr(p.rnd.Intn(wordsPerLine)*mem.WordSize)
			if l%2 == 1 {
				// Odd lanes roam another line of the same region so one
				// op touches several lines, as scattered SIMT does.
				if class == ClassIntraWF {
					addr = p.privateLine()
				} else {
					addr = p.sharedLine()
				}
				addr += mem.Addr(p.rnd.Intn(wordsPerLine) * mem.WordSize)
			}
		}
		p.noteLine(mem.LineAddr(addr, p.w.lineSize))
		req := p.newReq(l, addr)
		if isStore {
			req.Op = mem.OpStore
			req.Data = uint32(req.ID)
		} else {
			req.Op = mem.OpLoad
		}
	}
	p.trackOp()
	return op
}

// noteLine adds line to the instruction's distinct-line scratch. A
// linear scan beats a map here: a SIMT instruction touches at most a
// handful of lines (1 when coalesced).
func (p *wfProgram) noteLine(line mem.Addr) {
	for _, l := range p.lineScratch {
		if l == line {
			return
		}
	}
	p.lineScratch = append(p.lineScratch, line)
}

// trackOp records one locality access per distinct line the memory
// instruction touched: a coalesced SIMT access is a single use of its
// line, matching Koo et al.'s line-granularity reuse profiling.
func (p *wfProgram) trackOp() {
	for _, line := range p.lineScratch {
		p.w.tracker.Access(p.wf, line)
	}
}

func (p *wfProgram) privateLine() mem.Addr {
	n := p.w.Prof.PrivateLines
	if n <= 0 {
		n = 1
	}
	return privateBase + mem.Addr(p.wf)*privateRegion + mem.Addr(p.rnd.Intn(n)*p.w.lineSize)
}

func (p *wfProgram) sharedLine() mem.Addr {
	n := p.w.Prof.SharedLines
	if n <= 0 {
		n = 1
	}
	return sharedBase + mem.Addr(p.rnd.Intn(n)*p.w.lineSize)
}

// newReq resets lane's reusable request slot for the next instruction.
func (p *wfProgram) newReq(lane int, addr mem.Addr) *mem.Request {
	p.w.nextID++
	r := &p.reqs[lane]
	*r = mem.Request{
		ID:       p.w.nextID,
		Addr:     addr,
		ThreadID: p.wf*p.w.lanes + lane,
	}
	return r
}
