package harness

import (
	"fmt"

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

// ValidateRun admits a GPU run: nil means NewGPURun(sys, test, true,
// traceDepth) can build and run it without a false deadlock report;
// otherwise the error names the field. Each config's Validate owns its
// fields' limits. ValidateRun adds the trace depth's and the one rule
// spanning both configs (DESIGN §14.1): a request's worst-case wait
//
//	(threads + 2) × (ReqLatency + RespLatency + RespJitter + Mem.AccessLatency + L1RespLatency)
//	+ threads × ActionsPerEpisode × Mem.ServicePeriod
//
// must stay below the tester's DeadlockThreshold.
func ValidateRun(sys viper.Config, test core.Config, traceDepth int) error {
	if err := sys.Validate(); err != nil {
		return fmt.Errorf("sysCfg: %w", err)
	}
	if err := test.Validate(); err != nil {
		return fmt.Errorf("testCfg: %w", err)
	}
	if traceDepth > trace.MaxCapacity {
		return fmt.Errorf("traceDepth %d exceeds the admission limit of %d", traceDepth, trace.MaxCapacity)
	}
	t := test.WithDefaults() // both Validates bound every term: nothing below wraps
	threads := uint64(t.TotalThreads())
	roundTrip := uint64(sys.ReqLatency + sys.RespLatency + sys.RespJitter + sys.Mem.AccessLatency + sys.L1RespLatency)
	if wait := (threads+2)*roundTrip + threads*uint64(t.ActionsPerEpisode)*uint64(sys.Mem.ServicePeriod); wait >= t.DeadlockThreshold {
		return fmt.Errorf("testCfg.DeadlockThreshold %d is in reach of a correct run: (%d threads + 2) × %d ticks of "+
			"ReqLatency + RespLatency + RespJitter + Mem.AccessLatency + L1RespLatency, plus %d threads × %d ActionsPerEpisode × %d ticks of Mem.ServicePeriod, is a %d-tick wait",
			t.DeadlockThreshold, threads, roundTrip, threads, t.ActionsPerEpisode, sys.Mem.ServicePeriod, wait)
	}
	return nil
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
