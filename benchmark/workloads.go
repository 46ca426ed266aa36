package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"drftest/internal/apps"
	"drftest/internal/cache"
	"drftest/internal/campaignd"
	"drftest/internal/core"
	"drftest/internal/explore"
	"drftest/internal/harness"
	"drftest/internal/viper"
)

// params is everything a child run receives. The program under test
// sees only configurations derived from it.
type params struct {
	Seed uint64
	// Seconds is how long a timed run keeps making rounds.
	Seconds float64
	// Factor scales every round's op counts by one common factor; 1 is
	// the reference size (a round of 0.15-0.5 s on the 2-core reference
	// box), the only size expected.json pins.
	Factor float64
}

// scaled applies the work factor to a reference count.
func (p params) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*p.Factor)))
}

// roundStats is what one round (one pass over a workload's fixed work)
// reports. Digest holds simulated statistics only: it must repeat
// exactly from round to round and from build to build.
type roundStats struct {
	Memops    uint64            `json:"memops"`
	Seeds     uint64            `json:"seeds"`
	Schedules uint64            `json:"schedules"`
	Digest    map[string]uint64 `json:"digest"`
	// Canon is the hash of the run's canonical campaign report
	// (daemon_lease only), compared against a direct RunGPUCampaign.
	Canon string `json:"canon,omitempty"`
	// Checks counts the correctness checks the round attempted; Failed
	// describes the ones that did not hold.
	Checks int      `json:"checks"`
	Failed []string `json:"failed,omitempty"`
}

// ops returns the round's count of what the workload calls an op:
// "memop", "seed" or "schedule".
func (r *roundStats) ops(kind string) float64 {
	switch kind {
	case "memop":
		return float64(r.Memops)
	case "seed":
		return float64(r.Seeds)
	}
	return float64(r.Schedules)
}

func (r *roundStats) check(ok bool, format string, args ...any) {
	r.Checks++
	if !ok {
		r.Failed = append(r.Failed, fmt.Sprintf(format, args...))
	}
}

// instance is one fresh set-up of a workload, ready to do its first op.
type instance interface {
	run() roundStats
	close()
}

// workload is one set of inputs the benchmark runs. Every round is the
// same fixed work: a fresh set-up (untimed) followed by run (timed).
type workload struct {
	Name string
	Why  string
	// Class is the workload's letter in metric.On.
	Class string
	// Op names what allocs_per_op counts: "memop", "seed" or "schedule".
	Op string
	// SeedFree marks a workload whose stimulus is the same under every
	// -seed (see README: its cost is a property of the draw, so a
	// seed-dependent draw would measure the draw and not the build).
	SeedFree bool
	setup    func(p params) instance
	// probe makes one fresh set-up up to the first op (setup_s times
	// it) and returns what tears it down, if anything.
	probe func(p params) (cleanup func())
	// assembly, when set, is the benchmark-owned stand-in the traced
	// round instruments in place of setup's product entry point, run
	// untraced; its digest is pinned separately.
	assembly func(p params) instance
	// traced is the outside-in instrumented variant of one round.
	traced func(p params, tr *tracer) tracedRound
	// aux runs the workload's untimed extra checks in the set-up child.
	aux func(p params, rs *roundStats)
}

var workloads = []*workload{
	{
		Name:   "tester_small",
		Class:  "T",
		Why:    "replacement-stressing tester run: over half of all memops reach memctrl, so sim, network, viper, memctrl and core all work; the headline tester memops/s",
		Op:     "memop",
		setup:  func(p params) instance { return newTesterInstance(testerSmall(p)) },
		probe:  func(p params) func() { newTesterInstance(testerSmall(p)).t.Start(); return nil },
		traced: func(p params, tr *tracer) tracedRound { return tracedTester(testerSmall(p), tr) },
		aux:    detectInjectedBugs,
	},
	{
		Name:   "tester_large_stream",
		Class:  "T",
		Why:    "hit-dominated tester run with the pipelined online checker: memctrl reads drop >10x, checker and cache lead; a fill-path gain must be flat here",
		Op:     "memop",
		setup:  func(p params) instance { return newTesterInstance(testerLargeStream(p)) },
		probe:  func(p params) func() { newTesterInstance(testerLargeStream(p)).t.Start(); return nil },
		traced: func(p params, tr *tracer) tracedRound { return tracedTester(testerLargeStream(p), tr) },
	},
	{
		Name:     "app_suite",
		Class:    "A",
		Why:      "the paper's speed baseline: all 26 application profiles through gpucore, ~70 events per memop, core bypassed; the only workload over directory, moesi and dma",
		Op:       "memop",
		setup:    func(p params) instance { return appInstance{opts: appOptions(p)} },
		probe:    stageApp,
		assembly: func(p params) instance { return &appAssembly{opts: appOptions(p)} },
		traced:   tracedAppSuite,
	},
	{
		Name:   "campaign_fork",
		Class:  "C",
		Why:    "per-seed fixed cost with almost no simulation: large caches, tiny seeds, fork path; capacity-proportional scans and restore cost show here only",
		Op:     "seed",
		setup:  func(p params) instance { return campaignInstance{cfg: campaignFork(p)} },
		probe:  func(p params) func() { return firstCampaignSeed(campaignFork(p)) },
		traced: func(p params, tr *tracer) tracedRound { return tracedCampaign(campaignFork(p), tr) },
	},
	{
		Name:     "campaign_swarm",
		Class:    "S",
		Why:      "same RunContext on the reset path with a corner retune per batch: a fork-path gain that taxes reset/retune shows here",
		Op:       "seed",
		SeedFree: true,
		setup:    func(p params) instance { return campaignInstance{cfg: campaignSwarm(p)} },
		probe:    func(p params) func() { return firstCampaignSeed(campaignSwarm(p)) },
		traced:   func(p params, tr *tracer) tracedRound { return tracedCampaign(campaignSwarm(p), tr) },
	},
	{
		Name:     "explore_dpor",
		Class:    "X",
		Why:      "bounded exhaustive exploration, snapshot-cut bound: ~350 KB allocated per choice point and a third of the CPU in GC, the inverse of tester_small",
		Op:       "schedule",
		SeedFree: true,
		setup:    func(p params) instance { return exploreInstance{cfg: exploreDPOR(p)} },
		probe:    firstSchedule,
		traced:   tracedExplore,
	},
	{
		Name:   "daemon_lease",
		Class:  "D",
		Why:    "the control plane: HTTP lease round trips, JSON wire deltas and the batch barrier around ~1 ms seeds, one worker with 2 slots",
		Op:     "seed",
		setup:  func(p params) instance { return newDaemonInstance(daemonSpec(p), 2, nil) },
		probe:  firstLease,
		traced: tracedDaemon,
		aux:    daemonMatchesDirect,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// --- tester_small, tester_large_stream ---

type testerSpec struct {
	sys  viper.Config
	test core.Config
}

func testerShape(p params, episodes int) core.Config {
	c := core.DefaultConfig()
	c.Seed = p.Seed
	c.NumWavefronts = 16
	c.ThreadsPerWF = 4
	c.EpisodesPerThread = p.scaled(episodes)
	c.ActionsPerEpisode = 200
	c.NumSyncVars = 10
	// The fewest data variables that keep the paper-sized store mix (0.43
	// line writes per memop, as with 100 000); below it the DRF rule
	// leaves the 64 threads too few writable variables. Fewer variables
	// mean a smaller host working set for the neighbours to disturb.
	c.NumDataVars = 8192
	return c
}

func testerSmall(p params) testerSpec {
	return testerSpec{sys: viper.SmallCacheConfig(), test: testerShape(p, 12)}
}

func testerLargeStream(p params) testerSpec {
	c := testerShape(p, 7)
	c.StreamCheck = true
	return testerSpec{sys: viper.LargeCacheConfig(), test: c}
}

type testerInstance struct {
	b *harness.GPUBuild
	t *core.Tester
}

func newTesterInstance(s testerSpec) *testerInstance {
	b := harness.BuildGPU(s.sys)
	return &testerInstance{b: b, t: core.New(b.K, b.Sys, s.test)}
}

func (i *testerInstance) run() roundStats { return testerStats(i.b, i.t.Run()) }
func (i *testerInstance) close()          {}

// testerStats turns a finished tester run into round statistics.
func testerStats(b *harness.GPUBuild, rep *core.Report) roundStats {
	rs := roundStats{
		Memops: rep.OpsCompleted, Seeds: 1, Schedules: 1,
		Digest: map[string]uint64{
			"ops":      rep.OpsCompleted,
			"events":   rep.EventsExecuted,
			"ticks":    rep.SimTicks,
			"episodes": rep.EpisodesRetired,
			"l1_cells": uint64(b.Col.Matrix("GPU-L1").Summarize(nil).Active),
			"l2_cells": uint64(b.Col.Matrix("GPU-L2").Summarize(harness.TCCImpossibleGPUOnly()).Active),
		},
	}
	rs.check(rep.Passed(), "tester report failed: %v", rep.Failures)
	rs.check(len(rep.StreamViolations) == 0, "stream violations: %v", rep.StreamViolations)
	return rs
}

// detectInjectedBugs is the tester's other side: each injected protocol
// bug must be caught within 8 seeds of the bench_test.go case-study
// configuration.
func detectInjectedBugs(p params, rs *roundStats) {
	bugs := []struct {
		name     string
		set      viper.BugSet
		deadlock uint64
	}{
		{"LostWriteRace", viper.BugSet{LostWriteRace: true}, 0},
		{"NonAtomicRMW", viper.BugSet{NonAtomicRMW: true}, 0},
		{"DropWBAckEvery", viper.BugSet{DropWBAckEvery: 20}, 20_000},
		{"StaleAcquire", viper.BugSet{StaleAcquire: true}, 0},
	}
	for _, bug := range bugs {
		detected := false
		for s := uint64(0); s < 8 && !detected; s++ {
			sys := viper.SmallCacheConfig()
			sys.Bugs = bug.set
			b := harness.BuildGPU(sys)
			cfg := core.DefaultConfig()
			cfg.Seed = p.Seed + s
			cfg.NumWavefronts = 8
			cfg.EpisodesPerThread = 8
			cfg.ActionsPerEpisode = 30
			cfg.NumSyncVars = 4
			cfg.NumDataVars = 48
			cfg.StoreFraction = 0.6
			if bug.deadlock != 0 {
				cfg.DeadlockThreshold = bug.deadlock
				cfg.CheckPeriod = 5_000
			}
			detected = !core.New(b.K, b.Sys, cfg).Run().Passed()
		}
		rs.check(detected, "injected bug %s not detected within 8 seeds", bug.name)
	}
}

// --- app_suite ---

func appOptions(p params) harness.AppSuiteOptions {
	return harness.AppSuiteOptions{Seed: p.Seed, Scale: 0.08 * p.Factor, NumWFs: 16}
}

type appInstance struct {
	opts harness.AppSuiteOptions
}

// stageApp stages what RunAppSuite stages before an app kernel's first
// instruction: the heterogeneous build and the DMA copy-in.
func stageApp(params) func() {
	b := harness.BuildHetero(viper.DefaultConfig(), 2, harness.DefaultCPUCache)
	b.DMA.CopyIn(apps.SharedRegionBase, 32, 50, nil)
	b.K.RunUntilIdle()
	return nil
}

func (i appInstance) run() roundStats {
	res := harness.RunAppSuite(i.opts)
	rs := roundStats{Digest: map[string]uint64{
		"events":    res.TotalEvents,
		"l1_cells":  uint64(res.UnionL1Sum.Active),
		"l2_cells":  uint64(res.UnionL2Sum.Active),
		"dir_cells": uint64(res.UnionDirSum.Active),
	}}
	completed := true
	for _, r := range res.Runs {
		rs.Memops += r.Res.MemOps
		rs.Digest["ticks"] += r.Res.SimTicks
		rs.Digest["instructions"] += r.Res.Instructions
		completed = completed && r.Res.Completed
	}
	rs.Digest["ops"] = rs.Memops
	rs.Seeds = uint64(len(res.Runs))
	rs.Schedules = rs.Seeds
	rs.check(res.Faults == 0, "%d protocol faults", res.Faults)
	rs.check(completed, "an application did not complete")
	return rs
}

func (i appInstance) close() {}

// --- campaign_fork, campaign_swarm ---

// campaignBase spreads -seed over disjoint campaign seed ranges.
func campaignBase(p params) uint64 { return p.Seed * 1_000_003 }

func campaignFork(p params) harness.CampaignConfig {
	tc := core.DefaultConfig()
	tc.NumWavefronts = 2
	tc.EpisodesPerThread = 1
	tc.ActionsPerEpisode = 4
	// Few variables: with the default 4 096 the tester's per-seed
	// address-map rebuild (O(variables)) takes 37 % of the CPU and
	// hides the O(cache-capacity) scans this workload exists to show.
	tc.NumSyncVars = 2
	tc.NumDataVars = 64
	return harness.CampaignConfig{
		SysCfg: viper.LargeCacheConfig(), TestCfg: tc,
		BaseSeed: campaignBase(p), Workers: 1, BatchSize: 32,
		MaxSeeds: p.scaled(40) * 32, Fork: true,
	}
}

// campaignSwarm keeps BaseSeed fixed: the corner sequence is drawn from
// it, and per-seed work differs up to 16x between corners.
func campaignSwarm(p params) harness.CampaignConfig {
	tc := core.DefaultConfig()
	tc.NumWavefronts = 8
	tc.EpisodesPerThread = 8
	tc.ActionsPerEpisode = 30
	tc.NumSyncVars = 4
	tc.NumDataVars = 64
	tc.StoreFraction = 0.6
	return harness.CampaignConfig{
		SysCfg: viper.SmallCacheConfig(), TestCfg: tc,
		BaseSeed: 1, Workers: 1, BatchSize: 4,
		MaxSeeds: p.scaled(5) * 4, Mode: harness.CampaignSwarm,
	}
}

type campaignInstance struct {
	cfg harness.CampaignConfig
}

func (i campaignInstance) run() roundStats { return campaignStats(harness.RunGPUCampaign(i.cfg)) }
func (i campaignInstance) close()          {}

// firstCampaignSeed is a campaign's set-up: its state machine, a run
// context, and the first seed, on which the context builds its system
// (and, on the fork path, takes its warm snapshot).
func firstCampaignSeed(cfg harness.CampaignConfig) func() {
	st := harness.NewCampaignState(cfg)
	plan, _ := st.Plan()
	harness.NewRunContext(cfg).RunSeed(plan.First, plan.Corner)
	return nil
}

func campaignStats(res *harness.CampaignResult) roundStats {
	rs := roundStats{
		Memops: res.TotalOps, Seeds: uint64(res.SeedsRun), Schedules: uint64(res.SeedsRun),
		Digest: map[string]uint64{
			"seeds_run":           uint64(res.SeedsRun),
			"batches":             uint64(res.Batches),
			"ops":                 res.TotalOps,
			"events":              res.TotalEvents,
			"cells_at_saturation": uint64(res.CellsAtSaturation),
			"l1_cells":            uint64(res.UnionL1Sum.Active),
			"l2_cells":            uint64(res.UnionL2Sum.Active),
		},
	}
	rs.check(len(res.Failures) == 0, "%d failing campaign seeds", len(res.Failures))
	return rs
}

// --- explore_dpor ---

// exploreDPOR is the PR 10 reference configuration (2 CUs, 4 KB/16 KB
// 2-way caches, 2 WFs x 2 lanes, 10 actions, 1 sync / 16 data vars) at
// depth 32. The program is fixed: tester seed 13 completes 896 schedules
// in ≈0.5 s here, where seed 1 needs ≈9 s for one pass and leaves no room
// for repeated rounds. Below half size a smaller program (seed 26, 304
// schedules) stands in.
func exploreDPOR(p params) explore.Config {
	sys := viper.SmallCacheConfig()
	sys.NumCUs = 2
	sys.NumL2Slices = 1
	sys.L1 = cache.Config{SizeBytes: 4096, LineSize: 64, Assoc: 2}
	sys.L2 = cache.Config{SizeBytes: 16384, LineSize: 64, Assoc: 2}
	program := uint64(13)
	if p.Factor < 0.5 {
		program = 26
	}
	tc := core.Config{
		Seed: program, NumWavefronts: 2, ThreadsPerWF: 2,
		EpisodesPerThread: 1, ActionsPerEpisode: 10,
		NumSyncVars: 1, NumDataVars: 16, AddressRangeBytes: 16 * 64 * 8,
		StoreFraction: 0.7, AtomicDelta: 1,
		DeadlockThreshold: 20_000, CheckPeriod: 5_000, LogCapacity: 256,
	}
	return explore.Config{SysCfg: sys, TestCfg: tc, Depth: 32, Budget: 10_000_000, Prune: true}
}

type exploreInstance struct {
	cfg explore.Config
}

// firstSchedule is the explorer's set-up: Run builds its own run
// context, so one exploration is cut off after its first schedule.
func firstSchedule(p params) func() {
	cfg := exploreDPOR(p)
	cfg.Budget = 1
	explore.Run(cfg)
	return nil
}

func (i exploreInstance) run() roundStats {
	res, err := explore.Run(i.cfg)
	return exploreStats(i.cfg, res, err)
}
func (i exploreInstance) close() {}

func exploreStats(cfg explore.Config, res *explore.Result, err error) roundStats {
	var rs roundStats
	rs.check(err == nil, "explore.Run: %v", err)
	if err != nil {
		return rs
	}
	rs.Schedules = res.Schedules
	rs.Seeds = 1
	rs.Memops = res.Schedules * cfg.TestCfg.TotalActions()
	rs.Digest = map[string]uint64{
		"schedules":       res.Schedules,
		"pruned_paths":    res.PrunedPaths,
		"pruned_branches": res.PrunedBranches,
		"choice_points":   res.ChoicePoints,
	}
	rs.check(res.Complete(), "exploration incomplete (budget exhausted: %v)", res.BudgetExhausted)
	rs.check(res.Violation == nil, "exploration found a violation")
	return rs
}

// --- daemon_lease ---

func daemonSpec(p params) campaignd.Spec {
	tc := core.DefaultConfig()
	tc.NumWavefronts = 4
	tc.EpisodesPerThread = 2
	tc.ActionsPerEpisode = 20
	tc.NumSyncVars = 4
	tc.NumDataVars = 256
	return campaignd.Spec{
		SysCfg: viper.SmallCacheConfig(), TestCfg: tc, Mode: "uniform",
		BaseSeed: campaignBase(p), BatchSize: 32, LeaseSeeds: 4,
		MaxSeeds: p.scaled(8) * 32,
	}
}

// daemonInstance is an in-process daemon behind httptest with one
// attached worker; wrap, when set, sits between the listener and the
// daemon's handler (the traced run's middleware).
type daemonInstance struct {
	spec   campaignd.Spec
	srv    *campaignd.Server
	ts     *httptest.Server
	cancel context.CancelFunc
	worker sync.WaitGroup
}

const daemonTimeout = 2 * time.Minute

func newDaemonInstance(spec campaignd.Spec, slots int, wrap func(http.Handler) http.Handler) *daemonInstance {
	d := &daemonInstance{spec: spec, srv: campaignd.NewServer(campaignd.Options{})}
	h := d.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d.ts = httptest.NewServer(h)
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.worker.Add(1)
	go func() {
		defer d.worker.Done()
		campaignd.RunWorker(ctx, d.ts.URL, campaignd.WorkerOptions{ID: "bench", Slots: slots})
	}()
	return d
}

func (d *daemonInstance) run() roundStats {
	ctx, cancel := context.WithTimeout(context.Background(), daemonTimeout)
	defer cancel()
	var res *harness.CampaignResult
	id, err := d.srv.Submit(d.spec)
	if err == nil {
		res, err = d.srv.Wait(ctx, id)
	}
	if err != nil {
		var rs roundStats
		rs.check(false, "daemon campaign: %v", err)
		return rs
	}
	rs := campaignStats(res)
	rs.Canon = canonicalCampaign(res)
	return rs
}

// firstLease is the daemon's set-up: daemon, listener and worker start,
// and a one-seed campaign through a full lease round trip.
func firstLease(p params) func() {
	spec := daemonSpec(p)
	spec.BatchSize, spec.MaxSeeds = 1, 1
	d := newDaemonInstance(spec, 2, nil)
	d.run()
	return d.close
}

// close drains the daemon (the worker sees StatusShutdown and returns)
// and waits for the worker before closing the listener.
func (d *daemonInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), daemonTimeout)
	d.srv.Drain(ctx)
	cancel()
	d.cancel()
	d.worker.Wait()
	d.ts.Close()
}

// canonicalCampaign hashes a campaign result with its wall-clock
// fields zeroed: executors that ran the same spec must agree on it.
func canonicalCampaign(res *harness.CampaignResult) string {
	r := *res
	r.Wall, r.TotalWall = 0, 0
	b, err := json.Marshal(&r)
	if err != nil {
		return "marshal: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// daemonMatchesDirect records the canonical report of the same spec run
// through the single-process engine; the parent compares it with the
// daemon's.
func daemonMatchesDirect(p params, rs *roundStats) {
	cfg, err := daemonSpec(p).CampaignConfig()
	rs.check(err == nil, "spec: %v", err)
	if err != nil {
		return
	}
	cfg.Workers = 1
	rs.Canon = canonicalCampaign(harness.RunGPUCampaign(cfg))
}
