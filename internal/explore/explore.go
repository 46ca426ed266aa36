// Package explore implements bounded exhaustive schedule exploration:
// a DPOR-style stateless model-checking mode over the GPU tester.
//
// Where a campaign (internal/harness) samples one random schedule per
// seed, the explorer systematically enumerates the schedules a single
// seed can take. It drives the kernel's schedule choice point
// (sim.Chooser): whenever more than one event is co-enabled at a tick,
// the explorer runs one candidate and later rewinds to run the others,
// depth-first. A rewind restores the nearest snapshot of the complete
// run context (a harness.Checkpoint, the same full cut checkpointed
// replay uses) at or above the decision and replays the path's own
// schedule script from there, at most replayBound events. Every
// completed schedule is asserted by the streaming axiomatic checker
// (checker.Stream via core's StreamCheck) plus the tester's own
// autonomous checks, so the result upgrades "no
// violation in N random seeds" to "no violation in any explored
// schedule of this seed up to depth D". Config.Workers workers, each
// with its own run, split the schedule tree between them and report
// what one worker would have (parallel.go).
//
// Two classic partial-order reductions keep the enumeration tractable:
//
//   - Independence: two events commute when they belong to different
//     ordering units, both declare a line footprint, and the lines
//     neither match nor collide in any cache set (set conflicts share
//     replacement state). Commuting events need not be explored in
//     both orders.
//   - Sleep sets (Godefroid): after exploring the branch that fires
//     event a before b, sibling branches carry a in their sleep set;
//     a stays asleep while everything executed is independent of it,
//     and a branch about to fire a sleeping event is abandoned — the
//     schedule is a reordering of commuting events only, so some
//     already-explored schedule reaches the same verdict.
//
// Soundness is with respect to verdict-relevant state: the checkers'
// inputs and the protocol state they audit. Diagnostic state (trace
// ring order, latency histograms, the event log) may differ between
// schedules a reduction identifies, which is why anything whose effect
// is not provably confined to its declared footprint — RNG-drawing
// issue rounds, acquire flash-invalidates, release retirement —
// carries no footprint and stays dependent with everything. Untagged
// events additionally keep their deterministic relative order, a
// conservative under-approximation of the schedule space (see
// sim/chooser.go).
package explore

import (
	"drftest/internal/core"
	"drftest/internal/harness"
	"drftest/internal/viper"
)

// DefaultDepth bounds how many multi-candidate choice points may
// branch along one schedule; beyond it the explorer follows FIFO
// order.
const DefaultDepth = 8

// DefaultBudget bounds the number of schedules (completed plus
// abandoned-as-redundant) one exploration may cost.
const DefaultBudget = 10_000

// Config parameterizes one exploration.
type Config struct {
	// SysCfg and TestCfg describe the run to explore. Exploration is
	// only tractable for small configurations (2–4 wavefronts, few
	// variables, short episodes); StreamCheck is forced on so the
	// axiomatic checker asserts every schedule.
	SysCfg  viper.Config
	TestCfg core.Config

	// Depth bounds branching choice points per schedule (<=0 → DefaultDepth).
	Depth int
	// Budget bounds explored schedules (<=0 → DefaultBudget).
	Budget uint64
	// Workers is how many workers, each with its own run, explore
	// disjoint parts of the schedule tree (<=0 → GOMAXPROCS). The
	// result does not depend on it, beyond the host-cost fields (see
	// Result).
	Workers int
	// Prune enables the independence/sleep-set reduction. With it off
	// the explorer enumerates naively — the comparison baseline the CI
	// prune-ratio gate measures against.
	Prune bool

	// TraceDepth is the depth of the trace the violation's replay
	// records (<=0 → harness default); the exploration is untraced.
	TraceDepth int
	// ArtifactDir, when set, receives the replay artifact of the first
	// violating schedule (with its `schedule` field populated).
	ArtifactDir string
}

// Violation describes the first violating schedule found.
type Violation struct {
	// Schedule is the choice script that reproduces the violation: one
	// chosen event sequence number per multi-candidate choice point, in
	// execution order (the artifact's `schedule` field).
	Schedule []uint64 `json:"schedule"`
	// Failure is the schedule's first failure (empty Kind when the
	// violation was found by the stream checker alone).
	Failure harness.ArtifactFailure `json:"failure"`
	// StreamViolations counts the axiomatic checker's findings.
	StreamViolations int `json:"streamViolations"`
	// ArtifactPath is where the replay artifact was written ("" when no
	// ArtifactDir was configured or the failure was stream-only).
	ArtifactPath string `json:"artifactPath,omitempty"`
}

// Result reports a completed exploration.
type Result struct {
	// Schedules counts completed (fully executed and checked)
	// schedules; PrunedPaths counts schedules abandoned mid-run as
	// sleep-set-redundant; PrunedBranches counts sibling branches
	// skipped without ever running.
	Schedules      uint64 `json:"schedules"`
	PrunedPaths    uint64 `json:"prunedPaths"`
	PrunedBranches uint64 `json:"prunedBranches"`
	// ChoicePoints counts branching decision points; Restores counts
	// the rewinds to one of them. Cuts counts the full cuts taken — one
	// at the first choice point, then one wherever the nearest cut on
	// the path lay more than replayBound events back — and
	// ReplayedEvents the events rewinds re-fired from a cut to reach
	// their decision. These three and the two means below cover every
	// worker's work, so with more than one worker they depend on the
	// worker count and on timing; every other field is the one-worker
	// result.
	ChoicePoints   uint64 `json:"choicePoints"`
	Restores       uint64 `json:"restores"`
	Cuts           uint64 `json:"cuts"`
	ReplayedEvents uint64 `json:"replayedEvents"`
	// NsPerCut is the mean host time of one cut and NsPerRestore of one
	// rewind, its replay included (wall clock, so not reproducible run
	// to run).
	NsPerCut     float64 `json:"nsPerCut"`
	NsPerRestore float64 `json:"nsPerRestore"`
	// FrontierDepths[d] counts the choice points opened at DFS depth d
	// (d open decisions above them): the frontier histogram.
	FrontierDepths []uint64 `json:"frontierDepths"`
	// Candidates counts every candidate the kernel presented at a fresh
	// decision; SleepHitRate is PrunedBranches ÷ Candidates, the share
	// the sleep sets skipped.
	Candidates   uint64  `json:"candidates"`
	SleepHitRate float64 `json:"sleepHitRate"`
	// Depth and Budget echo the effective bounds.
	Depth  int    `json:"depth"`
	Budget uint64 `json:"budget"`
	// DepthLimited reports that some multi-candidate choice point fell
	// beyond the depth bound (the guarantee is "up to depth D", not
	// total); BudgetExhausted that enumeration stopped at the budget.
	DepthLimited    bool `json:"depthLimited"`
	BudgetExhausted bool `json:"budgetExhausted"`
	// Violation is the first violating schedule, nil for a clean
	// exploration.
	Violation *Violation `json:"violation,omitempty"`

	// Artifact is the in-memory violating-schedule artifact (also
	// written to ArtifactDir when configured); nil for clean runs and
	// stream-only violations.
	Artifact *harness.Artifact `json:"-"`
}

// Complete reports whether the bounded schedule space was fully
// enumerated (no budget exhaustion and no violation cut it short).
func (r *Result) Complete() bool {
	return !r.BudgetExhausted && r.Violation == nil
}

// run owns the system under exploration. testCfg is the effective
// tester config (StreamCheck forced on) — violation artifacts embed it
// so replay rebuilds the identical tester. The tester's online checker
// folds on the simulation thread from the first cut on (see
// checker.NewOnlineStream), so the cut at every choice point never
// waits on a checker thread. The run is untraced, like every
// producer's: a violation's artifact is a checked replay of its
// schedule (explorer.attach).
type run struct {
	*harness.GPURun
	testCfg core.Config
}

func newRun(cfg *Config) *run {
	tc := cfg.TestCfg
	tc.StreamCheck = true
	r := &run{GPURun: harness.NewGPURun(cfg.SysCfg, tc), testCfg: tc}
	r.Sys.EnableCheckpointing()
	return r
}

// Run explores the configured run's schedule space depth-first on
// Config.Workers workers and returns the exploration report: the
// serial explorer's, whatever the worker count (see parallel.go). It
// stops at the first violating schedule in serial order.
func Run(cfg Config) (*Result, error) { return newExplorer(cfg).explore() }
