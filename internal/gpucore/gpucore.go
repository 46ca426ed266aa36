// Package gpucore models the detailed GPU compute-unit pipeline that
// application-based testing must simulate and the DRF tester bypasses.
//
// The paper's >50× tester speedup comes precisely from this layer: a
// real GPU model fetches, decodes and issues every instruction of the
// application — most of which are ALU work that contributes nothing to
// coherence coverage — whereas the tester injects memory operations
// straight into the L1 sequencers. Each instruction here costs a chain
// of pipeline events (fetch → decode → execute), so application runs
// burn simulation work in proportion to their instruction count, just
// like gem5's GPU model does.
package gpucore

import (
	"drftest/internal/mem"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// Config sets the pipeline stage latencies in ticks.
type Config struct {
	FetchLatency   sim.Tick
	DecodeLatency  sim.Tick
	ExecuteLatency sim.Tick
}

// DefaultConfig returns a simple 3-stage, 1-tick-per-stage pipeline.
func DefaultConfig() Config {
	return Config{FetchLatency: 1, DecodeLatency: 1, ExecuteLatency: 1}
}

// MemOp is one SIMT memory instruction: every lane of the wavefront
// issues its request in lockstep.
type MemOp struct {
	Reqs []*mem.Request
}

// Program feeds a wavefront its instruction stream.
type Program interface {
	// Next returns the number of ALU instructions to execute before
	// the next memory instruction, the memory instruction itself, and
	// done=true when the wavefront has finished (remaining fields are
	// then ignored).
	//
	// Borrow contract: the returned MemOp's Reqs slice and the Request
	// structs it points to remain the program's property. The core
	// reads them only between this call and the completion of the last
	// lane's response, so a program may reuse one lane-indexed slice
	// and its Request slots across calls (each slot must keep a
	// lane-stable ThreadID: write-through acks that are still in
	// flight after the wavefront resumes are routed by ThreadID).
	Next() (aluOps int, op MemOp, done bool)
}

type wfCtx struct {
	id       int
	prog     Program
	pending  int
	finished bool

	// In-flight instruction group: alu instructions still to execute
	// before op issues, and the pipeline stage of the current one.
	alu   int
	op    MemOp
	stage uint8

	// Pre-bound continuations, created once per wavefront so the
	// per-instruction event chain schedules no new closures.
	fetchFn func()
	stageFn func()
	issueFn func()
}

// Core is one CU's pipeline front-end driving any number of wavefronts
// over the CU's sequencer.
type Core struct {
	k   *sim.Kernel
	cfg Config
	seq *viper.Sequencer
	// wfs[:live] are the core's wavefronts; contexts past live are kept
	// from earlier runs, prebound continuations and all, for
	// AddWavefront to reuse after a Reset.
	wfs  []*wfCtx
	live int

	// onWFDone is called once per wavefront completion.
	onWFDone func()

	instructions uint64
	memOps       uint64
	aluOps       uint64
}

// New builds a core over seq. The core registers itself as the
// sequencer's client.
func New(k *sim.Kernel, cfg Config, seq *viper.Sequencer, onWFDone func()) *Core {
	c := &Core{k: k, cfg: cfg, seq: seq, onWFDone: onWFDone}
	seq.SetClient(c)
	return c
}

// AddWavefront registers a wavefront running prog. The wavefront's ID
// must be unique within the core and is used to route responses, so
// every request the program emits must carry it in WFID... the core
// assigns it here.
func (c *Core) AddWavefront(prog Program) int {
	if c.live == len(c.wfs) {
		wf := &wfCtx{id: c.live}
		wf.fetchFn = func() { c.fetch(wf) }
		wf.stageFn = func() { c.stepALU(wf) }
		wf.issueFn = func() { c.issueLanes(wf) }
		c.wfs = append(c.wfs, wf)
	}
	wf := c.wfs[c.live]
	*wf = wfCtx{id: c.live, prog: prog, fetchFn: wf.fetchFn, stageFn: wf.stageFn, issueFn: wf.issueFn}
	c.live++
	return wf.id
}

// Reset returns the core to its just-built state — no wavefronts, zero
// stats, and the core its sequencer's client again — and keeps the
// wavefront contexts for AddWavefront to reuse. The kernel must be
// reset (or idle) first: its pending events reference the contexts.
func (c *Core) Reset() {
	c.live = 0
	c.instructions, c.memOps, c.aluOps = 0, 0, 0
	c.seq.SetClient(c)
}

// Start begins executing every wavefront.
func (c *Core) Start() {
	for _, wf := range c.wfs[:c.live] {
		c.k.Schedule(0, wf.fetchFn)
	}
}

// Stats returns (instructions, memOps, aluOps) executed.
func (c *Core) Stats() (instructions, memOps, aluOps uint64) {
	return c.instructions, c.memOps, c.aluOps
}

// fetch begins the next instruction group for wf.
func (c *Core) fetch(wf *wfCtx) {
	if c.k.Stopped() || wf.finished {
		return
	}
	alu, op, done := wf.prog.Next()
	if done {
		wf.finished = true
		if c.onWFDone != nil {
			c.onWFDone()
		}
		return
	}
	wf.alu, wf.op = alu, op
	c.advance(wf)
}

// advance starts the next ALU instruction of the in-flight group —
// this event chain is the "detailed model" cost — or, once the group
// is drained, issues its memory instruction.
func (c *Core) advance(wf *wfCtx) {
	if wf.alu <= 0 {
		c.issueMem(wf)
		return
	}
	c.instructions++
	c.aluOps++
	wf.stage = 0
	c.k.Schedule(c.cfg.FetchLatency, wf.stageFn)
}

// stepALU walks one ALU instruction through fetch → decode → execute,
// one event per stage.
func (c *Core) stepALU(wf *wfCtx) {
	switch wf.stage {
	case 0:
		wf.stage = 1
		c.k.Schedule(c.cfg.DecodeLatency, wf.stageFn)
	case 1:
		wf.stage = 2
		c.k.Schedule(c.cfg.ExecuteLatency, wf.stageFn)
	default:
		wf.alu--
		c.advance(wf)
	}
}

func (c *Core) issueMem(wf *wfCtx) {
	c.instructions++
	c.memOps++
	wf.pending = len(wf.op.Reqs)
	if wf.pending == 0 {
		c.k.Schedule(1, wf.fetchFn)
		return
	}
	// The memory instruction also traverses the pipeline before its
	// lanes reach the sequencer.
	lat := c.cfg.FetchLatency + c.cfg.DecodeLatency + c.cfg.ExecuteLatency
	c.k.Schedule(lat, wf.issueFn)
}

func (c *Core) issueLanes(wf *wfCtx) {
	for _, req := range wf.op.Reqs {
		req.WFID = wf.id
		c.seq.Issue(req)
	}
}

// HandleResponse implements mem.Requestor: lockstep — the wavefront
// resumes when every lane's request completed.
func (c *Core) HandleResponse(resp *mem.Response) {
	wf := c.wfs[resp.Req.WFID]
	wf.pending--
	if wf.pending == 0 {
		c.k.Schedule(1, wf.fetchFn)
	}
}
