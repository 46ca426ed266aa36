package harness

import (
	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/sim"
	"drftest/internal/trace"
	"drftest/internal/viper"
)

// GPURun is one GPU run context: a built system, the tester driving it
// and, when failures must be replayable, the execution-trace ring.
// Campaign contexts, replay, checkpointed bisection, the schedule
// explorer and gputester's single run all run seeds through it.
type GPURun struct {
	*GPUBuild
	Tester *core.Tester
	// Ring is nil on an untraced run; every use below is nil-safe.
	Ring *trace.Ring
}

// NewGPURun builds a system for sys with a tester for test over it,
// traced at traceDepth (<= 0 → DefaultTraceCapacity) when traced is
// set. A caller that will checkpoint mid-run calls
// Sys.EnableCheckpointing before starting the tester.
func NewGPURun(sys viper.Config, test core.Config, traced bool, traceDepth int) *GPURun {
	r := &GPURun{GPUBuild: BuildGPU(sys)}
	if traced {
		r.Ring = EnableTrace(r.K, traceDepth)
	}
	r.Tester = core.New(r.K, r.Sys, test)
	return r
}

// Checkpoint is a consistent cut of a GPURun: one snapshot of every
// stateful layer, taken at the same instant. This file is the one place
// that knows which layers those are and the order they restore in.
type Checkpoint struct {
	kernel *sim.KernelSnapshot
	sys    *viper.SystemSnapshot
	tester *core.TesterSnapshot
	col    *coverage.CollectorSnapshot
	ring   *trace.RingSnapshot
}

// CheckpointInto captures the run into c, refilling whatever storage
// c's previous use left in it (a zero Checkpoint allocates). Mid-run
// cuts need Sys.EnableCheckpointing.
func (r *GPURun) CheckpointInto(c *Checkpoint) {
	c.kernel = r.K.SnapshotInto(c.kernel)
	c.sys = r.Sys.SnapshotInto(c.sys)
	c.tester = r.Tester.SnapshotInto(c.tester)
	c.col = r.Col.SnapshotInto(c.col)
	c.ring = r.Ring.SnapshotInto(c.ring)
}

// Restore rewinds the run to c. The kernel and system go first: the
// tester's restore contract is that both already stand at the cut.
func (r *GPURun) Restore(c *Checkpoint) {
	r.K.Restore(c.kernel)
	r.Sys.Restore(c.sys)
	r.Tester.Restore(c.tester)
	r.Col.Restore(c.col)
	r.Ring.Restore(c.ring)
}
