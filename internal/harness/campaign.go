// Campaign engine: coverage-saturation testing campaigns over reusable
// run contexts.
//
// The paper's methodology is campaign-shaped — coverage accumulates
// across many independent tester runs until the protocol transition
// matrix saturates — so the harness needs more than fixed-length
// sweeps. This file provides:
//
//   - Reusable run contexts (RunContext): each worker builds one system
//     and replays it across hundreds of seeds via the Reset paths
//     (sim.Kernel, viper.System, coverage.Collector, core.Tester),
//     skipping the per-run construction cost of caches, pools, address
//     space and reference memory. A reset run is bit-identical to a
//     fresh-build run for the same seed (pinned by
//     TestResetRunBitIdentical).
//   - A saturation-driven scheduler split into three layers. The *spec*
//     layer is CampaignConfig: a pure description of the campaign. The
//     *lease* layer is CampaignState.Plan: the next batch of seeds and
//     the configuration corner it must run under, which any executor —
//     the in-process worker pool below, or the control-plane daemon's
//     local and remote workers (internal/campaignd) — can shard and
//     run. The *merge* layer is CampaignState.Apply: coverage deltas
//     union into the campaign matrices at the batch barrier, newly
//     activated cells are counted and attributed, the corner policy
//     observes the yield, and the K-zero-batch stopping rule advances.
//   - Scalable merging: the run path touches only worker-local
//     matrices (the collector's direct counter tables); union merging
//     happens at batch boundaries, outside the workers, so there is no
//     shared-map or lock contention while seeds execute. Executors
//     hand whole-batch deltas to Apply, so merge cost amortizes per
//     batch — the property that lets the distributed daemon stream one
//     compact result per lease instead of one per seed.
//
// Determinism: the campaign's outcome — seeds run, batch count, union
// matrices, failure set — is a pure function of (Mode, BaseSeed,
// BatchSize, SaturateK, MaxSeeds) and is independent of the worker
// count *and* of how batches are sharded into deltas. Seeds are dealt
// from one counter so every seed in [BaseSeed, BaseSeed+SeedsRun) runs
// exactly once; matrix union is addition (commutative), the
// newly-activated-cell count per batch is a set property of the batch
// (independent of the order deltas merge in), and failures are keyed
// and sorted by seed. The swarm/directed corner policy (directed.go)
// only extends the argument: corners are chosen at batch boundaries
// from (BaseSeed, batch, per-batch new-cell history), all of which are
// themselves worker-count independent.
package harness

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/protocol"
	"drftest/internal/viper"
)

// DefaultCampaignMaxSeeds caps a campaign that never saturates.
const DefaultCampaignMaxSeeds = 1024

// CampaignConfig parameterizes a coverage-saturation campaign.
type CampaignConfig struct {
	// SysCfg and TestCfg shape every run; TestCfg.Seed is ignored —
	// run i uses seed BaseSeed + i.
	SysCfg  viper.Config `json:"sysCfg"`
	TestCfg core.Config  `json:"testCfg"`
	// BaseSeed is the first seed of the campaign's seed sequence.
	BaseSeed uint64 `json:"baseSeed"`
	// Workers sizes the worker pool (≤0 → GOMAXPROCS). The campaign
	// outcome does not depend on it, only wall clock does.
	Workers int `json:"workers,omitempty"`
	// BatchSize is the number of seeds between coverage merges (≤0 →
	// 16). The saturation rule advances in whole batches, so smaller
	// batches stop closer to the true plateau but merge more often.
	BatchSize int `json:"batchSize,omitempty"`
	// SaturateK stops the campaign after this many consecutive batches
	// that activate zero new transition cells. Zero disables the
	// plateau rule: the campaign runs exactly MaxSeeds seeds.
	SaturateK int `json:"saturateK,omitempty"`
	// MaxSeeds is the hard cap on seeds run (≤0 →
	// DefaultCampaignMaxSeeds).
	MaxSeeds int `json:"maxSeeds,omitempty"`
	// Fork makes each worker fork per-seed run contexts from a warm
	// system snapshot (core.Tester.Fork) instead of resetting the
	// system: the snapshot arms copy-on-write journals over the caches
	// and reference memory, so rearming for the next seed undoes what
	// the previous run touched where System.Reset clears what it left
	// valid and rebuilds the rest. Fork-ineligible seeds (a corner
	// whose snapshot is not yet taken, or per-seed jitter reseeding)
	// transparently fall back to the reset path. The campaign outcome
	// is unchanged — a forked run is bit-identical to a reset run
	// (pinned by TestForkRunBitIdentical and
	// TestForkCampaignMatchesReset).
	Fork bool `json:"fork,omitempty"`
	// Mode selects the per-batch configuration policy: uniform (every
	// batch at the base config), swarm (a random lattice corner per
	// batch) or directed (corner sampling biased by cold-cell yield).
	// See directed.go.
	Mode CampaignMode `json:"mode,omitempty"`
	// ArtifactDir, when non-empty, writes one replay artifact per
	// failing seed into the directory (named by seed, the PR 1
	// reproduce-every-failure guarantee extended to campaigns);
	// TraceDepth sizes the embedded execution trace (≤0 →
	// DefaultTraceCapacity).
	ArtifactDir string `json:"artifactDir,omitempty"`
	TraceDepth  int    `json:"traceDepth,omitempty"`
	// CaptureArtifacts embeds each failing seed's replay artifact,
	// JSON-encoded, in SeedFailure.Artifact instead of (or in addition
	// to) writing loose files. The control-plane daemon sets it so
	// remote workers ship artifacts inline with their batch results and
	// the daemon persists them into its content-addressed store.
	CaptureArtifacts bool `json:"captureArtifacts,omitempty"`
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.MaxSeeds <= 0 {
		c.MaxSeeds = DefaultCampaignMaxSeeds
	}
	return c
}

// SeedFailure records the failures one seed produced.
type SeedFailure struct {
	Seed     uint64          `json:"seed"`
	Failures []*core.Failure `json:"failures"`
	// ArtifactPath is the replay artifact written for this seed
	// (CampaignConfig.ArtifactDir set, or the daemon's store path);
	// ArtifactErr records a write failure instead. Both empty when
	// artifacts were not requested.
	ArtifactPath string `json:"artifactPath,omitempty"`
	ArtifactErr  string `json:"artifactError,omitempty"`
	// Artifact is the JSON-encoded replay artifact
	// (CampaignConfig.CaptureArtifacts set): the wire form a remote
	// worker ships to the daemon, which persists it into the artifact
	// store and replaces it with ArtifactPath.
	Artifact []byte `json:"artifact,omitempty"`
}

// CampaignResult is the outcome of a saturation campaign.
type CampaignResult struct {
	// Mode is the configuration policy the campaign ran under.
	Mode CampaignMode
	// SeedsRun counts completed runs; seeds were BaseSeed ..
	// BaseSeed+SeedsRun-1.
	SeedsRun int
	// Batches counts merge rounds; NewCellsByBatch[i] is the number of
	// transition cells batch i activated for the first time.
	Batches         int
	NewCellsByBatch []int
	// CornerByBatch names the configuration corner each batch ran with
	// (all "...base..." in uniform mode).
	CornerByBatch []string
	// NewCellNamesByBatch lists, per batch, the "machine [State, Event]"
	// cells that batch activated for the first time — the per-corner
	// attribution record (total size is bounded by the cell count of
	// both matrices, so this stays small on any campaign length).
	NewCellNamesByBatch [][]string
	// ColdByBatch is the number of reachable-but-unhit union cells
	// remaining after each batch's merge — the quantity directed mode
	// chases to zero.
	ColdByBatch []int
	// Saturated reports whether the plateau rule (not the seed cap)
	// ended the campaign.
	Saturated bool
	// SeedsToSaturation is the number of seeds run through the last
	// batch that activated a new cell — the cost of reaching the
	// campaign's final coverage, excluding the trailing confirmation
	// batches. CellsAtSaturation is that final coverage: active
	// reachable cells summed over both matrices.
	SeedsToSaturation int
	CellsAtSaturation int

	UnionL1    *coverage.Matrix
	UnionL2    *coverage.Matrix
	UnionL1Sum coverage.Summary
	UnionL2Sum coverage.Summary

	// Failures lists every failing seed in ascending seed order.
	Failures []SeedFailure

	TotalOps    uint64
	TotalEvents uint64
	// TotalWall sums per-run wall times (the testing-cost measure);
	// Wall is the campaign's elapsed wall clock.
	TotalWall time.Duration
	Wall      time.Duration
}

// SeedsPerSec returns the campaign's end-to-end throughput.
func (r *CampaignResult) SeedsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.SeedsRun) / r.Wall.Seconds()
}

// BatchPlan is one batch the campaign wants executed: Count seeds
// starting at First, all under Corner. It is the lease layer's unit of
// work — an executor may run it on one context, shard it across a
// worker pool, or slice it into sub-leases for remote worker
// processes; the outcome is the same as long as every seed runs
// exactly once and the deltas all reach Apply.
type BatchPlan struct {
	// Index is the batch's position in the campaign (0-based).
	Index int
	// First is the batch's first seed; seeds are First..First+Count-1.
	First uint64
	Count int
	// Corner is the configuration corner every seed of the batch runs
	// under (the base corner in uniform mode).
	Corner *Corner
}

// BatchDelta is the merge-ready outcome of some subset of a batch's
// seeds: the coverage those seeds added (worker-local matrices),
// their failures, and their work counters. Matrices may be nil when a
// delta carries only failures/counters.
type BatchDelta struct {
	L1, L2   *coverage.Matrix
	Failures []SeedFailure
	// Seeds is the number of seeds the delta covers — bookkeeping for
	// executors that shard batches; Apply trusts the plan's Count.
	Seeds  int
	Ops    uint64
	Events uint64
	Wall   time.Duration
}

// CampaignState is the spec+merge layer of the campaign scheduler: it
// owns the corner policy, the union matrices, the saturation rule and
// every per-batch record, while delegating seed execution to whoever
// calls it. The single-process RunGPUCampaign and the control-plane
// daemon (internal/campaignd) drive the same state machine, which is
// why a distributed campaign's outcome is byte-identical to the local
// one: both are the same sequence of Plan/Apply transitions.
//
// The protocol is strictly alternating: Plan returns the current
// batch (idempotently — calling it twice plans the same batch), the
// caller executes those seeds however it likes, and Apply merges the
// batch's deltas at the barrier and advances. CampaignState is not
// goroutine-safe; callers serialize access (the daemon holds its
// campaign lock across Apply).
type CampaignState struct {
	cfg    CampaignConfig
	policy *cornerPolicy
	out    *CampaignResult

	l2Name        string
	impossible    coverage.CellSet
	tcpImpossible coverage.CellSet

	start       time.Time
	zeroBatches int
	done        bool
	finalized   bool
}

// NewCampaignState initializes the campaign state machine for cfg
// (defaults applied as in RunGPUCampaign).
func NewCampaignState(cfg CampaignConfig) *CampaignState {
	cfg = cfg.withDefaults()
	l2Spec, l2Name, impossible := CampaignSpecs(cfg.SysCfg)
	return &CampaignState{
		cfg:    cfg,
		policy: newCornerPolicy(cfg),
		out: &CampaignResult{
			Mode:    cfg.Mode,
			UnionL1: coverage.NewMatrix(viper.NewTCPSpec()),
			UnionL2: coverage.NewMatrix(l2Spec),
		},
		l2Name:        l2Name,
		impossible:    impossible,
		tcpImpossible: TCPImpossible(),
		start:         time.Now(),
	}
}

// Config returns the campaign's configuration with defaults applied.
func (s *CampaignState) Config() CampaignConfig { return s.cfg }

// Done reports whether the campaign has ended (saturation or seed
// cap). Once true, Plan returns ok=false and Result may be taken.
func (s *CampaignState) Done() bool { return s.done }

// Plan returns the batch the campaign wants executed next. It is
// idempotent — the batch advances only when Apply merges its deltas —
// and returns ok=false once the campaign is done. The corner is a pure
// function of (BaseSeed, batch index, union history), so re-planning
// after a crash or lease reissue yields the identical batch.
func (s *CampaignState) Plan() (plan BatchPlan, ok bool) {
	if s.done {
		return BatchPlan{}, false
	}
	count := s.cfg.BatchSize
	if rest := s.cfg.MaxSeeds - s.out.SeedsRun; count > rest {
		count = rest
	}
	return BatchPlan{
		Index:  s.out.Batches,
		First:  s.cfg.BaseSeed + uint64(s.out.SeedsRun),
		Count:  count,
		Corner: s.policy.corner(s.out.Batches),
	}, true
}

// Apply merges the current batch's deltas at the batch barrier:
// coverage unions accumulate, newly activated cells are counted and
// attributed to the batch's corner, the policy observes the yield, and
// the saturation rule advances. The deltas must jointly cover exactly
// the current plan's seeds; their order is irrelevant (union is
// addition, the new-cell count is a set property of the batch, and the
// attribution record is sorted).
func (s *CampaignState) Apply(deltas []BatchDelta) {
	plan, ok := s.Plan()
	if !ok {
		panic("harness: Apply on a finished campaign")
	}
	out := s.out
	newCells := 0
	var activated []string
	onL1 := func(st, ev int) {
		activated = append(activated, "GPU-L1 "+out.UnionL1.CellName(coverage.Cell{State: st, Event: ev}))
	}
	onL2 := func(st, ev int) {
		activated = append(activated, s.l2Name+" "+out.UnionL2.CellName(coverage.Cell{State: st, Event: ev}))
	}
	for _, d := range deltas {
		if d.L1 != nil {
			newCells += out.UnionL1.MergeCountNewFunc(d.L1, onL1)
		}
		if d.L2 != nil {
			newCells += out.UnionL2.MergeCountNewFunc(d.L2, onL2)
		}
		out.Failures = append(out.Failures, d.Failures...)
		out.TotalOps += d.Ops
		out.TotalEvents += d.Events
		out.TotalWall += d.Wall
	}
	// Delta merge order is irrelevant to the counts; sort the
	// attribution list so the record reads the same regardless of which
	// worker (or lease) ran the activating seed.
	sort.Strings(activated)
	s.policy.observe(plan.Corner, newCells)
	out.SeedsRun += plan.Count
	out.Batches++
	out.NewCellsByBatch = append(out.NewCellsByBatch, newCells)
	out.NewCellNamesByBatch = append(out.NewCellNamesByBatch, activated)
	out.CornerByBatch = append(out.CornerByBatch, plan.Corner.Name())
	out.ColdByBatch = append(out.ColdByBatch,
		len(out.UnionL1.ColdCells(s.tcpImpossible))+len(out.UnionL2.ColdCells(s.impossible)))
	if newCells > 0 {
		out.SeedsToSaturation = out.SeedsRun
	}
	if newCells == 0 {
		s.zeroBatches++
	} else {
		s.zeroBatches = 0
	}
	if s.cfg.SaturateK > 0 && s.zeroBatches >= s.cfg.SaturateK {
		out.Saturated = true
		s.done = true
	}
	if out.SeedsRun >= s.cfg.MaxSeeds {
		s.done = true
	}
}

// Progress is a cheap point-in-time view of a running campaign, the
// payload of the daemon's live status endpoint.
type Progress struct {
	SeedsRun        int    `json:"seedsRun"`
	Batches         int    `json:"batches"`
	NewCellsByBatch []int  `json:"newCellsByBatch"`
	ActiveCells     int    `json:"activeCells"`
	ColdCells       int    `json:"coldCells"`
	Failures        int    `json:"failures"`
	Saturated       bool   `json:"saturated"`
	Done            bool   `json:"done"`
	Corner          string `json:"corner,omitempty"`
}

// Progress snapshots the campaign's live counters. ActiveCells is the
// sum of per-batch newly-activated cells — exactly the active union
// cell count, since a cell is counted once when it first goes nonzero.
func (s *CampaignState) Progress() Progress {
	p := Progress{
		SeedsRun:        s.out.SeedsRun,
		Batches:         s.out.Batches,
		NewCellsByBatch: append([]int(nil), s.out.NewCellsByBatch...),
		Failures:        len(s.out.Failures),
		Saturated:       s.out.Saturated,
		Done:            s.done,
	}
	for _, n := range s.out.NewCellsByBatch {
		p.ActiveCells += n
	}
	if n := len(s.out.ColdByBatch); n > 0 {
		p.ColdCells = s.out.ColdByBatch[n-1]
	}
	if plan, ok := s.Plan(); ok {
		p.Corner = plan.Corner.Name()
	}
	return p
}

// Abort ends the campaign early (daemon drain): no further batches are
// planned, and Result finalizes whatever whole batches merged. The
// merged prefix is still deterministic — it is the same Plan/Apply
// sequence any run of the spec would produce, just truncated.
func (s *CampaignState) Abort() { s.done = true }

// Result finalizes and returns the campaign outcome: failures sorted
// by seed, union summaries computed, wall clock closed. Idempotent;
// callable once Done (or after Abort).
func (s *CampaignState) Result() *CampaignResult {
	if !s.finalized {
		out := s.out
		// Failing seeds were appended in delta order; seed order is the
		// deterministic presentation (seeds are unique, so the sort is a
		// total order).
		sort.Slice(out.Failures, func(i, j int) bool { return out.Failures[i].Seed < out.Failures[j].Seed })
		out.UnionL1Sum = out.UnionL1.Summarize(s.tcpImpossible)
		out.UnionL2Sum = out.UnionL2.Summarize(s.impossible)
		out.CellsAtSaturation = out.UnionL1Sum.Active + out.UnionL2Sum.Active
		out.Wall = time.Since(s.start)
		s.finalized = true
	}
	return s.out
}

// RunContext owns one long-lived reusable run context: a GPURun built
// on the first seed and rearmed for every later one, and the
// worker-local coverage/failure accumulators. All
// fields are touched only by the goroutine running seeds during a
// batch, and only by the merger between batches. It is the execution
// half the lease layer hands seeds to — the in-process pool below and
// the daemon's local and remote workers all run seeds through it.
type RunContext struct {
	cfg    CampaignConfig
	l2Name string

	// run is traced when artifacts are requested; its ring is reset per
	// seed so a failing run's trace is bit-identical to the trace a
	// fresh single-seed replay records.
	run *GPURun
	// corner is the interned corner the reusable context is currently
	// configured for; a pointer mismatch with the batch's corner routes
	// the reset through ResetWithConfig/SetRespJitter.
	corner *Corner
	// snap is the worker's warm system snapshot (Fork mode), taken at
	// the first clean quiescent point under snapCorner; seeds running
	// the same corner fork from it instead of resetting.
	snap       *viper.SystemSnapshot
	snapCorner *Corner

	// dL1/dL2 accumulate the context's coverage since its last delta
	// handoff; failures, seeds, ops, events and wall likewise. The
	// run's collector is reset before every seed, so its matrices
	// hold exactly one run's hits, merged here on completion.
	dL1, dL2 *coverage.Matrix
	failures []SeedFailure
	seeds    int
	ops      uint64
	events   uint64
	wall     time.Duration
}

// NewRunContext creates a reusable run context for cfg. The context is
// built lazily on the first RunSeed, so creating a pool is cheap.
func NewRunContext(cfg CampaignConfig) *RunContext {
	cfg = cfg.withDefaults()
	l2Spec, l2Name, _ := CampaignSpecs(cfg.SysCfg)
	return &RunContext{
		cfg:    cfg,
		l2Name: l2Name,
		dL1:    coverage.NewMatrix(viper.NewTCPSpec()),
		dL2:    coverage.NewMatrix(l2Spec),
	}
}

// forkEligible reports whether seed runs under corner c can use the
// warm-snapshot fork path: Fork mode on, a snapshot taken for this
// exact corner, the context currently configured for it, and no
// per-seed jitter reseeding (which must route through SetRespJitter).
func (w *RunContext) forkEligible(c *Corner) bool {
	return w.cfg.Fork && !c.JitterPerSeed &&
		w.snap != nil && w.snapCorner == c && w.corner == c
}

// takeForkSnapshot captures the warm system snapshot for corner c at a
// clean quiescent point (just built, or just reset). Taking it arms
// the copy-on-write journals every subsequent run pays a small
// journaling overhead into — which is why it is only taken in Fork
// mode — and a corner change replaces it, so swarm batches fork
// within their own corner.
func (w *RunContext) takeForkSnapshot(c *Corner) {
	if !w.cfg.Fork || c.JitterPerSeed || (w.snap != nil && w.snapCorner == c) {
		return
	}
	w.snap = w.run.Sys.Snapshot()
	w.snapCorner = c
}

// cornerSysCfg is the system config corner c runs under for seed.
func (w *RunContext) cornerSysCfg(c *Corner, seed uint64) viper.Config {
	sc := w.cfg.SysCfg
	sc.RespJitter = c.RespJitter
	if c.JitterPerSeed {
		sc.JitterSeed = seed
	}
	return sc
}

// wantArtifacts reports whether failing seeds must capture a replay
// artifact (loose file, inline bytes, or both).
func (w *RunContext) wantArtifacts() bool {
	return w.cfg.ArtifactDir != "" || w.cfg.CaptureArtifacts
}

// rearm readies the built context for seed under corner c. The
// collector and trace ring reset in place either way; the system comes
// back by journal-undo from the warm snapshot when the seed is fork
// eligible (inside Tester.Fork, skipping System.Reset's full
// cache-invalidation scans) and by the reset path otherwise.
func (w *RunContext) rearm(seed uint64, c *Corner) {
	r := w.run
	r.Col.Reset()
	r.Ring.Reset()
	if w.forkEligible(c) {
		r.Tester.Fork(seed, []*viper.SystemSnapshot{w.snap})
		return
	}
	// Reset order matters: the kernel first (drops pending events,
	// essential after a bug-stopped run), then the system (recycles
	// controller state those events referenced), then the tester. A
	// corner change retunes the response jitter between the kernel and
	// system resets (System.Reset reseeds the jitter stream from the
	// config this writes) and routes the tester through the
	// reconfiguring reset.
	r.K.Reset()
	if w.corner != c || c.JitterPerSeed {
		sc := w.cornerSysCfg(c, seed)
		r.Sys.SetRespJitter(sc.RespJitter, sc.JitterSeed)
	}
	r.Sys.Reset()
	if w.corner != c {
		r.Tester.ResetWithConfig(seed, c.TestCfg)
		w.corner = c
	} else {
		r.Tester.Reset(seed)
	}
}

// RunSeed executes one seed under corner c, accumulating its coverage,
// failures and counters into the context's pending delta.
func (w *RunContext) RunSeed(seed uint64, c *Corner) {
	if w.run == nil {
		tc := c.TestCfg
		tc.Seed = seed
		w.run = NewGPURun(w.cornerSysCfg(c, seed), tc, w.wantArtifacts(), w.cfg.TraceDepth)
		w.corner = c
	} else {
		w.rearm(seed, c)
	}
	w.takeForkSnapshot(c)
	r := w.run
	rep := r.Tester.Run()
	w.dL1.Merge(r.Col.Matrix("GPU-L1"))
	w.dL2.Merge(r.Col.Matrix(w.l2Name))
	if len(rep.Failures) > 0 {
		sf := SeedFailure{Seed: seed, Failures: rep.Failures}
		if w.wantArtifacts() {
			tc := c.TestCfg
			tc.Seed = seed
			art := NewGPUArtifact(r.Sys.Cfg, tc, r.Tester, rep, r.Ring)
			if w.cfg.CaptureArtifacts {
				if data, err := art.Encode(); err != nil {
					sf.ArtifactErr = err.Error()
				} else {
					sf.Artifact = data
				}
			}
			if w.cfg.ArtifactDir != "" {
				if path, err := art.Write(w.cfg.ArtifactDir); err != nil {
					sf.ArtifactErr = err.Error()
				} else {
					sf.ArtifactPath = path
				}
			}
		}
		w.failures = append(w.failures, sf)
	}
	w.seeds++
	w.ops += rep.OpsIssued
	w.events += rep.EventsExecuted
	w.wall += rep.WallTime
}

// Delta returns the context's accumulated coverage/failure delta. The
// matrices are *references* into the context — merge them (Apply, or a
// wire encoding) before the next RunSeed, then ClearDelta.
func (w *RunContext) Delta() BatchDelta {
	return BatchDelta{
		L1:       w.dL1,
		L2:       w.dL2,
		Failures: w.failures,
		Seeds:    w.seeds,
		Ops:      w.ops,
		Events:   w.events,
		Wall:     w.wall,
	}
}

// ClearDelta zeroes the accumulators for the next batch.
func (w *RunContext) ClearDelta() {
	w.dL1.Zero()
	w.dL2.Zero()
	w.failures = w.failures[:0]
	w.seeds = 0
	w.ops, w.events, w.wall = 0, 0, 0
}

// CampaignSpecs resolves the L2 spec, collector matrix name and
// impossible-cell mask for the configured protocol variant (the L1
// side is always viper.NewTCPSpec, "GPU-L1" and TCPImpossible) — what
// a campaign over sysCfg records L2 coverage against, and the shape a
// distributed executor needs to decode sparse coverage deltas.
func CampaignSpecs(sysCfg viper.Config) (l2Spec *protocol.Spec, l2Name string, impossible coverage.CellSet) {
	if sysCfg.WriteBackL2 {
		return viper.NewTCCWBSpec(), "GPU-L2WB", TCCWBImpossible()
	}
	return viper.NewTCCSpec(), "GPU-L2", TCCImpossibleGPUOnly()
}

// RunGPUCampaign runs a coverage-saturation campaign over GPU-only
// systems: batches of seeds execute on the worker pool's reusable run
// contexts until SaturateK consecutive batches add no new transition
// coverage (or MaxSeeds is reached). See the package comment above for
// the determinism argument.
func RunGPUCampaign(cfg CampaignConfig) *CampaignResult {
	cfg = cfg.withDefaults()
	st := NewCampaignState(cfg)
	workers := make([]*RunContext, cfg.Workers)
	for i := range workers {
		workers[i] = NewRunContext(cfg)
	}

	deltas := make([]BatchDelta, len(workers))
	for {
		plan, ok := st.Plan()
		if !ok {
			break
		}
		// Workers claim seeds within the batch from an atomic ticket
		// counter; the barrier below is the merge point. Which worker
		// runs which seed is racy, but nothing observable depends on it.
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *RunContext) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(plan.Count) {
						return
					}
					w.RunSeed(plan.First+uint64(i), plan.Corner)
				}
			}(w)
		}
		wg.Wait()

		for i, w := range workers {
			deltas[i] = w.Delta()
		}
		st.Apply(deltas)
		for _, w := range workers {
			w.ClearDelta()
		}
	}
	return st.Result()
}
