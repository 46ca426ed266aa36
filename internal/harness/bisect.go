// Checkpointed replay bisection and failure-trace minimization.
//
// A replay artifact pins a failing run, but the failure it reports is
// often detected long after the state divergence that caused it — a
// deadlock surfaces a whole heartbeat period after progress ceased,
// and a value mismatch only when the stale line is finally read. This
// file narrows a failing replay down to its first failing tick without
// re-simulating the prefix over and over:
//
//  1. One checkpointed replay pass re-executes the run, taking a
//     Checkpoint of the whole run context every K ticks alongside the
//     failure and progress counters at that point.
//  2. The coarse phase binary-searches the recorded counters — pure
//     array work, no simulation — for the pair of checkpoints
//     bracketing the first tick where the failure predicate flips.
//  3. The fine phase restores the one bracketing checkpoint below the
//     flip and single-steps the kernel at most K ticks to the exact
//     first failing tick.
//
// On top of the bisected tick, Minimize cuts the artifact's trace down
// to the suffix from that tick on, producing a minimized artifact that
// still reproduces (CheckReproduced compares suffixes for minimized
// artifacts).
package harness

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"drftest/internal/core"
	"drftest/internal/sim"
)

// DefaultBisectCheckpoints is the checkpoint-count target the adaptive
// cadence aims for when no explicit interval is given.
const DefaultBisectCheckpoints = 64

// gpuCheckpoint is one full run-context cut plus the counters the
// coarse search needs.
type gpuCheckpoint struct {
	Checkpoint
	tick  uint64
	fails int
	ops   uint64
}

// BisectResult reports a completed replay bisection.
type BisectResult struct {
	// FirstFailingTick is the bisected root tick: the first tick at
	// which the run's failure predicate holds — the failure's
	// detection tick for value/atomicity bugs, the tick forward
	// progress ceased for deadlocks (which the deadlock report itself
	// trails by up to a heartbeat period).
	FirstFailingTick uint64 `json:"firstFailingTick"`
	// ReportedTick is the artifact's failure tick, for comparison.
	ReportedTick uint64 `json:"reportedTick"`
	// Deadlock selects which predicate was bisected: failure count for
	// value bugs, completed-op progress for deadlocks.
	Deadlock bool `json:"deadlock"`
	// Checkpoints and CheckpointEvery describe the pass-1 cadence.
	Checkpoints     int    `json:"checkpoints"`
	CheckpointEvery uint64 `json:"checkpointEvery"`
	// CoarseTick is the restored checkpoint's tick; FineSteps counts
	// the single-tick probes from it to FirstFailingTick.
	CoarseTick uint64 `json:"coarseTick"`
	FineSteps  int    `json:"fineSteps"`
}

// ErrBisectUnsupported marks an artifact checkpointed replay cannot
// drive at all — a reason to fall back to plain Replay, unlike a
// bisection that ran and diverged.
var ErrBisectUnsupported = errors.New("bisect: unsupported artifact")

// newBisectRun builds the checkpointable replay context for a.
func newBisectRun(a *Artifact) (*GPURun, error) {
	if a.Kind != ArtifactGPU {
		return nil, fmt.Errorf("%w: checkpointed replay is GPU-only, this is a %s artifact", ErrBisectUnsupported, a.Kind)
	}
	if len(a.Schedule) > 0 {
		// A scheduled artifact replays through a ScriptChooser whose
		// consumption position is itself execution state; the bisect
		// checkpoints do not capture it, so restoring a mid-run cut
		// would desynchronize the script. Bisect the underlying config
		// under default order instead, or extend the cut first.
		return nil, fmt.Errorf("%w: a checkpoint cannot rewind a pinned schedule", ErrBisectUnsupported)
	}
	r := NewGPURun(a.GPU.SysCfg, a.GPU.TestCfg)
	r.Ring = traceReplay(r.K, a)
	r.Sys.EnableCheckpointing()
	return r, nil
}

func checkpoint(r *GPURun) *gpuCheckpoint {
	cp := &gpuCheckpoint{
		tick:  uint64(r.K.Now()),
		fails: r.Tester.FailureCount(),
		ops:   r.Tester.OpsCompleted(),
	}
	r.CheckpointInto(&cp.Checkpoint)
	return cp
}

// BisectArtifact finds the artifact's first failing tick by
// checkpointed replay (see the file comment for the three phases).
// every is the checkpoint cadence in ticks; <= 0 picks an adaptive
// cadence aiming for DefaultBisectCheckpoints checkpoints across the
// run (derived from the artifact's reported failure tick). The
// checkpointed replay must itself reproduce the artifact's failure;
// a divergence is an error.
func BisectArtifact(a *Artifact, every sim.Tick) (*BisectResult, error) {
	if len(a.Failures) == 0 {
		return nil, fmt.Errorf("bisect: artifact has no failure")
	}
	reported := a.FirstFailure()
	if every <= 0 {
		every = sim.Tick(reported.Tick / DefaultBisectCheckpoints)
		if every <= 0 {
			every = 1
		}
	}

	r, err := newBisectRun(a)
	if err != nil {
		return nil, err
	}

	// Pass 1: checkpointed replay. The run executes in cadence-sized
	// slices with a full snapshot after each, so any later phase can
	// rewind to within `every` ticks of any point. Checkpointing stops
	// once the reported failure tick is behind us — the predicate is
	// monotone and the artifact pins where it has flipped by, so
	// snapshots past it would never be restored (and each one deep-
	// copies the whole run context, which only grows with the run) —
	// and the rest of the run executes in one uncheckpointed sweep.
	// The slice target advances monotonically rather than chasing
	// Now()+every: Kernel.Run leaves Now untouched when no event falls
	// inside the slice, so a Now-relative target would re-run the same
	// empty slice forever across any event gap wider than the cadence.
	r.Tester.Start()
	cps := []*gpuCheckpoint{checkpoint(r)}
	for next := r.K.Now() + every; !r.K.Stopped() && r.K.Pending() > 0 && uint64(r.K.Now()) < reported.Tick; next += every {
		if uint64(r.K.Run(next)) > cps[len(cps)-1].tick {
			cps = append(cps, checkpoint(r))
		}
	}
	r.K.RunUntilIdle()
	r.Tester.Finish()
	replayed := NewGPUArtifact(a.GPU.SysCfg, a.GPU.TestCfg, r.Tester, r.Tester.Report(), r.Ring)
	if err := CheckReproduced(a, replayed); err != nil {
		return nil, fmt.Errorf("bisect: checkpointed replay did not reproduce the artifact: %w", err)
	}

	// The bisection predicate must be monotone in tick. Failure count
	// is (failures only accumulate); for deadlocks the detection
	// heartbeat fires long after the root event, so the predicate is
	// instead "completed-op progress has reached its final stuck
	// value" — completed ops are monotone too, and the flip tick is
	// where forward progress actually ceased.
	deadlock := reported.Kind == core.FailDeadlock.String()
	finalOps := r.Tester.OpsCompleted()
	pred := func(fails int, ops uint64) bool {
		if deadlock {
			return ops >= finalOps
		}
		return fails > 0
	}

	// Coarse phase: binary-search the checkpoint counters for the
	// first checkpoint where the predicate holds. Pure array work.
	hi := sort.Search(len(cps), func(i int) bool { return pred(cps[i].fails, cps[i].ops) })
	if hi == len(cps) {
		return nil, fmt.Errorf("bisect: predicate never flipped across %d checkpoints (internal inconsistency)", len(cps))
	}

	res := &BisectResult{
		ReportedTick:    reported.Tick,
		Deadlock:        deadlock,
		Checkpoints:     len(cps),
		CheckpointEvery: uint64(every),
	}
	if hi == 0 {
		// Failing from the very first checkpoint (tick 0): nothing to
		// restore or step.
		res.FirstFailingTick = cps[0].tick
		res.CoarseTick = cps[0].tick
		return res, nil
	}

	// Fine phase: restore the one checkpoint below the flip and
	// single-step to the exact tick.
	// The probe target advances monotonically for the same reason as
	// the pass-1 slice target: an empty tick leaves Now in place, and
	// probing Now()+1 again would never cross the gap.
	lo := cps[hi-1]
	r.Restore(&lo.Checkpoint)
	res.CoarseTick = lo.tick
	for next := r.K.Now() + 1; !pred(r.Tester.FailureCount(), r.Tester.OpsCompleted()); next++ {
		if r.K.Stopped() || r.K.Pending() == 0 {
			return nil, fmt.Errorf("bisect: fine scan ran dry at tick %d before the predicate flipped", r.K.Now())
		}
		r.K.Run(next)
		res.FineSteps++
	}
	res.FirstFailingTick = uint64(r.K.Now())
	return res, nil
}

// Minimize derives the minimized artifact: the original with its trace
// cut to the shortest reproducing suffix — the entries from the
// bisected first failing tick on. fromName records the source artifact
// (its file name) in the minimized artifact. The result still
// reproduces under Replay/CheckReproduced, which compare a minimized
// trace against the suffix of the re-recorded one.
func Minimize(a *Artifact, fromName string, firstFailingTick uint64) *Artifact {
	min := *a
	min.MinimizedFrom = fromName
	min.FirstFailingTick = firstFailingTick
	min.Trace = nil
	for _, e := range a.Trace {
		if e.Tick >= firstFailingTick {
			min.Trace = append(min.Trace, e)
		}
	}
	return &min
}

// MinimizedPath is the conventional on-disk name for the minimized
// companion of the artifact at path: "<base>.min.json" alongside it.
func MinimizedPath(path string) string {
	return strings.TrimSuffix(path, ".json") + ".min.json"
}

// WriteMinimized writes the minimized artifact alongside its original
// (MinimizedPath) and returns the path written.
func WriteMinimized(origPath string, min *Artifact) (string, error) {
	out := MinimizedPath(origPath)
	dir, base := filepath.Split(out)
	if dir == "" {
		dir = "."
	}
	return writeArtifactAs(min, dir, base)
}
