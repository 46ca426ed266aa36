// Benchmarks regenerating every table and figure of the paper's
// evaluation (DESIGN.md carries the experiment index). Each benchmark
// reports, beyond ns/op, the quantities the paper plots: coverage
// percentages, simulated events, and memory operations per second —
// so `go test -bench=. -benchmem` reproduces the evaluation's shape.
package drftest_test

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"drftest"
	"drftest/internal/apps"
	"drftest/internal/checker"
	"drftest/internal/core"
	"drftest/internal/harness"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// benchScale keeps one benchmark iteration in the tens-of-milliseconds
// range; cmd/figures runs the same experiments at full length.
const benchScale = 0.1

// BenchmarkTableI_L1Events and BenchmarkTableII_L2Events render the
// event vocabularies (Tables I and II).
func BenchmarkTableI_L1Events(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.RenderTableI(io.Discard)
	}
}

func BenchmarkTableII_L2Events(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.RenderTableII(io.Discard)
	}
}

// BenchmarkTableIII_ConfigSpace builds the 24+24 tester configurations.
func BenchmarkTableIII_ConfigSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(harness.GPUTesterConfigs(1, 1))+len(harness.CPUTesterConfigs(1, 1)) != 48 {
			b.Fatal("config space changed")
		}
	}
}

// BenchmarkTableIV_Applications renders the application suite table.
func BenchmarkTableIV_Applications(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.RenderTableIV(io.Discard)
	}
}

// BenchmarkFig4_TransitionTables renders both VIPER tables.
func BenchmarkFig4_TransitionTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.RenderFig4(io.Discard)
	}
}

// BenchmarkFig5_HeatmapSmall / Large run the tester under the two
// cache sizings of Fig. 5 and report coverage.
func BenchmarkFig5_HeatmapSmall(b *testing.B) {
	benchTesterRun(b, 0)
}

func BenchmarkFig5_HeatmapLarge(b *testing.B) {
	benchTesterRun(b, 8)
}

func benchTesterRun(b *testing.B, cfgIdx int) {
	b.Helper()
	var last *harness.GPURunResult
	for i := 0; i < b.N; i++ {
		cfgs := harness.GPUTesterConfigs(uint64(i)+1, benchScale)
		last = harness.RunGPUTest(cfgs[cfgIdx])
		if !last.Report.Passed() {
			b.Fatalf("tester failed: %v", last.Report.Failures[0])
		}
	}
	b.ReportMetric(100*last.L1Sum.Coverage(), "L1cov%")
	b.ReportMetric(100*last.L2Sum.Coverage(), "L2cov%")
	b.ReportMetric(float64(last.Report.OpsIssued), "memops")
}

// BenchmarkFig6_Locality profiles one streaming and one contended
// application's reuse mix.
func BenchmarkFig6_Locality(b *testing.B) {
	var res *harness.AppSuiteResult
	for i := 0; i < b.N; i++ {
		res = harness.RunAppSuite(harness.AppSuiteOptions{
			Seed: uint64(i) + 1, Scale: benchScale, NumWFs: 8,
			Profiles: []apps.Profile{*apps.ByName("Square"), *apps.ByName("CM")},
		})
		if res.Faults != 0 {
			b.Fatal("protocol faults")
		}
	}
	b.ReportMetric(100*res.Runs[0].Res.Locality[apps.ClassStreaming], "Square.streaming%")
	b.ReportMetric(100*res.Runs[1].Res.Locality[apps.ClassMixWF], "CM.mixWF%")
}

// BenchmarkFig7_ClassGrids produces the tester-vs-apps classification
// grids.
func BenchmarkFig7_ClassGrids(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweep := harness.RunGPUSweep(harness.GPUTesterConfigs(uint64(i)+1, benchScale)[:4])
		appsRes := harness.RunAppSuite(harness.AppSuiteOptions{
			Seed: uint64(i) + 1, Scale: benchScale, NumWFs: 8,
			Profiles: []apps.Profile{*apps.ByName("FFT"), *apps.ByName("Interac")},
		})
		harness.RenderFig7(io.Discard, sweep, appsRes)
	}
}

// BenchmarkFig8_TesterSweep runs a slice of the Table III sweep and
// reports union coverage — the per-run and UNION rows of Fig. 8.
func BenchmarkFig8_TesterSweep(b *testing.B) {
	var sweep *harness.GPUSweepResult
	for i := 0; i < b.N; i++ {
		sweep = harness.RunGPUSweep(harness.GPUTesterConfigs(uint64(i)+1, benchScale)[:8])
		if sweep.Failures != 0 {
			b.Fatal("tester failures")
		}
	}
	b.ReportMetric(100*sweep.UnionL1Sum.Coverage(), "unionL1cov%")
	b.ReportMetric(100*sweep.UnionL2Sum.Coverage(), "unionL2cov%")
	b.ReportMetric(float64(sweep.TotalEvents), "simevents")
}

// BenchmarkFig9_AppSweep runs a slice of the application suite and
// reports union coverage — Fig. 9's rows.
func BenchmarkFig9_AppSweep(b *testing.B) {
	var res *harness.AppSuiteResult
	for i := 0; i < b.N; i++ {
		res = harness.RunAppSuite(harness.AppSuiteOptions{
			Seed: uint64(i) + 1, Scale: benchScale, NumWFs: 8,
			Profiles: apps.Profiles[:6],
		})
		if res.Faults != 0 {
			b.Fatal("protocol faults")
		}
	}
	b.ReportMetric(100*res.UnionL1Sum.Coverage(), "unionL1cov%")
	b.ReportMetric(100*res.UnionL2Sum.Coverage(), "unionL2cov%")
	b.ReportMetric(float64(res.TotalEvents), "simevents")
}

// BenchmarkFig10_Directory reproduces the directory comparison: GPU
// tester + CPU tester union versus application coverage.
func BenchmarkFig10_Directory(b *testing.B) {
	var union, appsSum float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		_, gpuDir := harness.RunGPUTesterOnDirectory(harness.GPUTesterConfigs(seed, benchScale)[0])
		cpuRes := harness.RunCPUSweep(harness.CPUTesterConfigs(seed, 0.01)[:6])
		u := gpuDir.Clone()
		u.Merge(cpuRes.UnionDir)
		appsRes := harness.RunAppSuite(harness.AppSuiteOptions{
			Seed: seed, Scale: benchScale, NumWFs: 8,
			Profiles: []apps.Profile{*apps.ByName("Square"), *apps.ByName("Interac")},
		})
		union = 100 * u.Summarize(nil).Coverage()
		appsSum = 100 * appsRes.UnionDirSum.Coverage()
	}
	b.ReportMetric(union, "testersUnion%")
	b.ReportMetric(appsSum, "apps%")
}

// BenchmarkTableV_BugReport measures time-to-detection of the
// lost-write race, the paper's Table V bug.
func BenchmarkTableV_BugReport(b *testing.B) {
	benchCaseStudy(b, drftest.BugSet{LostWriteRace: true}, 0)
}

// BenchmarkCaseStudy_* measure time-to-detection for the other §V bug
// classes.
func BenchmarkCaseStudy_NonAtomicRMW(b *testing.B) {
	benchCaseStudy(b, drftest.BugSet{NonAtomicRMW: true}, 0)
}

func BenchmarkCaseStudy_DroppedWBAck(b *testing.B) {
	benchCaseStudy(b, drftest.BugSet{DropWBAckEvery: 20}, 20_000)
}

func BenchmarkCaseStudy_StaleAcquire(b *testing.B) {
	benchCaseStudy(b, drftest.BugSet{StaleAcquire: true}, 0)
}

func benchCaseStudy(b *testing.B, bugs drftest.BugSet, deadlock uint64) {
	b.Helper()
	detected := 0
	var ticksToDetect float64
	for i := 0; i < b.N; i++ {
		for seed := uint64(1); seed <= 8; seed++ {
			k := sim.NewKernel()
			sysCfg := viper.SmallCacheConfig()
			sysCfg.Bugs = bugs
			sys := viper.NewSystem(k, sysCfg, nil)
			cfg := core.DefaultConfig()
			cfg.Seed = seed + uint64(i)*8
			cfg.NumWavefronts = 8
			cfg.EpisodesPerThread = 8
			cfg.ActionsPerEpisode = 30
			cfg.NumSyncVars = 4
			cfg.NumDataVars = 48
			cfg.StoreFraction = 0.6
			if deadlock != 0 {
				cfg.DeadlockThreshold = deadlock
				cfg.CheckPeriod = sim.Tick(deadlock / 4)
			}
			rep := core.New(k, sys, cfg).Run()
			if !rep.Passed() {
				detected++
				ticksToDetect += float64(rep.Failures[0].Tick)
				break
			}
		}
	}
	if detected == 0 {
		b.Fatal("injected bug never detected")
	}
	b.ReportMetric(ticksToDetect/float64(detected), "ticks-to-detect")
}

// BenchmarkSpeed_TesterPerMemOp and BenchmarkSpeed_AppPerMemOp back
// the ">50x faster" claim: simulation cost per memory operation with
// and without the detailed GPU core model.
func BenchmarkSpeed_TesterPerMemOp(b *testing.B) {
	cfgs := harness.GPUTesterConfigs(1, benchScale)
	var ops, events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := harness.RunGPUTest(cfgs[0])
		ops += r.Report.OpsIssued
		events += r.Report.EventsExecuted
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/float64(ops), "events/memop")
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "memops/s")
}

func BenchmarkSpeed_AppPerMemOp(b *testing.B) {
	var ops, events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := harness.RunAppSuite(harness.AppSuiteOptions{
			Seed: uint64(i) + 1, Scale: benchScale, NumWFs: 8,
			Profiles: []apps.Profile{*apps.ByName("MatMul")},
		})
		ops += res.Runs[0].Res.MemOps
		events += res.Runs[0].Res.Events
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/float64(ops), "events/memop")
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "memops/s")
}

// --- Ablation benches: the design choices DESIGN.md calls out ---

// BenchmarkAblation_FalseSharingMapping quantifies the dense random
// variable→address mapping: time-to-detect the lost-write race with
// and without false sharing.
func BenchmarkAblation_FalseSharingMapping(b *testing.B) {
	run := func(padded bool) (detected int) {
		for seed := uint64(1); seed <= 6; seed++ {
			k := sim.NewKernel()
			sysCfg := viper.SmallCacheConfig()
			sysCfg.Bugs = viper.BugSet{LostWriteRace: true}
			sys := viper.NewSystem(k, sysCfg, nil)
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.NumWavefronts = 8
			cfg.EpisodesPerThread = 8
			cfg.ActionsPerEpisode = 30
			cfg.NumSyncVars = 4
			cfg.NumDataVars = 48
			cfg.StoreFraction = 0.6
			if padded {
				cfg.AddressRangeBytes = uint64(cfg.NumSyncVars+cfg.NumDataVars) * 64 * 4
			}
			if rep := core.New(k, sys, cfg).Run(); !rep.Passed() {
				detected++
			}
		}
		return detected
	}
	var dense, padded int
	for i := 0; i < b.N; i++ {
		dense = run(false)
		padded = run(true)
	}
	b.ReportMetric(float64(dense), "dense-detections/6")
	b.ReportMetric(float64(padded), "padded-detections/6")
}

// BenchmarkAblation_EpisodeLength measures coverage per issued op for
// short vs long episodes.
func BenchmarkAblation_EpisodeLength(b *testing.B) {
	run := func(actions int) (cov float64) {
		cfgs := harness.GPUTesterConfigs(1, benchScale)
		cfg := cfgs[0]
		cfg.TestCfg.ActionsPerEpisode = actions
		r := harness.RunGPUTest(cfg)
		return 100 * r.L2Sum.Coverage()
	}
	var short, long float64
	for i := 0; i < b.N; i++ {
		short = run(6)
		long = run(60)
	}
	b.ReportMetric(short, "L2cov%@6acts")
	b.ReportMetric(long, "L2cov%@60acts")
}

// BenchmarkAblation_BankedL2 measures the tester over 1 vs 4 L2
// slices: the methodology is topology-independent (§III.B).
func BenchmarkAblation_BankedL2(b *testing.B) {
	run := func(slices int) float64 {
		sysCfg := viper.SmallCacheConfig()
		sysCfg.NumL2Slices = slices
		bld := harness.BuildGPU(sysCfg)
		cfg := core.DefaultConfig()
		cfg.Seed = 11
		cfg.NumWavefronts = 8
		cfg.EpisodesPerThread = 4
		cfg.ActionsPerEpisode = 40
		rep := core.New(bld.K, bld.Sys, cfg).Run()
		if !rep.Passed() {
			b.Fatal("tester failed on banked topology")
		}
		return 100 * bld.Col.Matrix("GPU-L2").Summarize(harness.TCCImpossibleGPUOnly()).Coverage()
	}
	var one, four float64
	for i := 0; i < b.N; i++ {
		one = run(1)
		four = run(4)
	}
	b.ReportMetric(one, "L2cov%@1slice")
	b.ReportMetric(four, "L2cov%@4slices")
}

// BenchmarkExtension_MultiGPU runs the tester over two GPUs sharing a
// directory and reports L2 coverage including the inter-GPU probe row.
func BenchmarkExtension_MultiGPU(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		sysCfg := viper.SmallCacheConfig()
		sysCfg.NumCUs = 4
		bld := harness.BuildMultiGPU(sysCfg, 2)
		cfg := core.DefaultConfig()
		cfg.Seed = uint64(i) + 3
		cfg.NumWavefronts = 16
		cfg.EpisodesPerThread = 6
		cfg.ActionsPerEpisode = 40
		cfg.NumSyncVars = 8
		cfg.NumDataVars = 256
		tester := core.NewMulti(bld.K, bld.GPUs, cfg)
		tester.Start()
		bld.K.RunUntilIdle()
		tester.Finish()
		tester.AuditStore(bld.Store)
		if len(tester.Failures()) > 0 {
			b.Fatalf("multi-GPU tester failed: %v", tester.Failures()[0])
		}
		cov = 100 * bld.Col.Matrix("GPU-L2").Summarize(harness.TCCImpossibleMultiGPU()).Coverage()
	}
	b.ReportMetric(cov, "L2cov%")
}

// BenchmarkExtension_WriteBackProtocol runs the unchanged tester over
// the VIPER-WB variant.
func BenchmarkExtension_WriteBackProtocol(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		sysCfg := viper.SmallCacheConfig()
		sysCfg.WriteBackL2 = true
		bld := harness.BuildGPU(sysCfg)
		cfg := core.DefaultConfig()
		cfg.Seed = uint64(i) + 1
		cfg.NumWavefronts = 16
		cfg.EpisodesPerThread = 6
		cfg.ActionsPerEpisode = 40
		cfg.NumSyncVars = 8
		cfg.NumDataVars = 512
		rep := core.New(bld.K, bld.Sys, cfg).Run()
		if !rep.Passed() {
			b.Fatalf("WB tester failed: %v", rep.Failures[0])
		}
		cov = 100 * bld.Col.Matrix("GPU-L2WB").Summarize(harness.TCCWBImpossible()).Coverage()
	}
	b.ReportMetric(cov, "L2WBcov%")
}

// BenchmarkProtocolPerf_WTvsWB measures the same workload on both
// protocols — the "quickly evaluate new protocol ideas" use case the
// paper's conclusion motivates.
func BenchmarkProtocolPerf_WTvsWB(b *testing.B) {
	prof := *apps.ByName("CM")
	prof.MemOpsPerLane = 100
	run := func(wb bool, seed uint64) uint64 {
		sysCfg := viper.DefaultConfig()
		sysCfg.WriteBackL2 = wb
		k := sim.NewKernel()
		sys := viper.NewSystem(k, sysCfg, nil)
		res := apps.Run(k, sys, prof, seed, 16, 4, 0)
		if !res.Completed || res.Faults != 0 {
			b.Fatal("run did not complete cleanly")
		}
		return res.SimTicks
	}
	var wt, wb uint64
	for i := 0; i < b.N; i++ {
		wt = run(false, uint64(i)+1)
		wb = run(true, uint64(i)+1)
	}
	b.ReportMetric(float64(wt), "WT-simticks")
	b.ReportMetric(float64(wb), "WB-simticks")
	b.ReportMetric(float64(wt)/float64(wb), "WB-speedup")
}

// BenchmarkCampaignReuse / BenchmarkCampaignRebuild measure the
// campaign engine's seed throughput with reusable run contexts (reset
// per seed) against the rebuild baseline (the same seeds, each on a
// fresh harness.NewRunContext, so a fresh system per seed). The
// configuration is paper-scale on the address-space axis — tens of
// thousands of variables, as in Table III — which is exactly where
// per-seed reconstruction hurts: the variable slab, reference memory
// and cache arrays dwarf the work of one short run.
func BenchmarkCampaignReuse(b *testing.B)   { benchCampaign(b, false) }
func BenchmarkCampaignRebuild(b *testing.B) { benchCampaign(b, true) }

func benchCampaign(b *testing.B, rebuild bool) {
	b.Helper()
	testCfg := core.DefaultConfig()
	testCfg.NumWavefronts = 8
	testCfg.EpisodesPerThread = 1
	testCfg.ActionsPerEpisode = 8
	testCfg.NumSyncVars = 16
	testCfg.NumDataVars = 100_000
	seeds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := harness.CampaignConfig{
			SysCfg:    viper.SmallCacheConfig(),
			TestCfg:   testCfg,
			BaseSeed:  uint64(i)*1000 + 1,
			BatchSize: 8,
			MaxSeeds:  32,
		}
		run := harness.RunGPUCampaign
		if rebuild {
			run = rebuildCampaign
		}
		res := run(cfg)
		if len(res.Failures) != 0 {
			b.Fatalf("campaign failed: seed %d: %v", res.Failures[0].Seed, res.Failures[0].Failures[0])
		}
		seeds += res.SeedsRun
	}
	b.StopTimer()
	b.ReportMetric(float64(seeds)/b.Elapsed().Seconds(), "seeds/sec")
}

// rebuildCampaign is RunGPUCampaign with nothing reused: the same
// Plan/Apply state machine and the same GOMAXPROCS-wide parallelism,
// but every seed runs on a fresh run context.
func rebuildCampaign(cfg harness.CampaignConfig) *harness.CampaignResult {
	st := harness.NewCampaignState(cfg)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for plan, ok := st.Plan(); ok; plan, ok = st.Plan() {
		deltas := make([]harness.BatchDelta, plan.Count)
		var wg sync.WaitGroup
		for i := range deltas {
			wg.Add(1)
			slots <- struct{}{}
			go func() {
				defer wg.Done()
				w := harness.NewRunContext(cfg)
				w.RunSeed(plan.First+uint64(i), plan.Corner)
				deltas[i] = w.Delta()
				<-slots
			}()
		}
		wg.Wait()
		st.Apply(deltas)
	}
	return st.Result()
}

// BenchmarkCampaignModeUniform / Swarm / Directed compare the three
// campaign sampling policies on identical budgets: how many union
// cells each has active when it saturates (cells-at-saturation) and
// how many seeds it needed to activate the last of them
// (seeds-to-saturation). Uniform plateaus below the swarm modes — the
// base configuration provably cannot reach the replacement and A-row
// stall cells the configuration corners buy — and directed's feedback
// reaches full coverage in fewer seeds than blind swarm sampling.
// These two metrics are the PR gate recorded in BENCH_PR6.json.
func BenchmarkCampaignModeUniform(b *testing.B)  { benchCampaignMode(b, harness.CampaignUniform) }
func BenchmarkCampaignModeSwarm(b *testing.B)    { benchCampaignMode(b, harness.CampaignSwarm) }
func BenchmarkCampaignModeDirected(b *testing.B) { benchCampaignMode(b, harness.CampaignDirected) }

func benchCampaignMode(b *testing.B, mode harness.CampaignMode) {
	b.Helper()
	testCfg := core.DefaultConfig()
	testCfg.NumWavefronts = 8
	testCfg.EpisodesPerThread = 8
	testCfg.ActionsPerEpisode = 30
	testCfg.NumSyncVars = 4
	testCfg.NumDataVars = 64
	testCfg.StoreFraction = 0.6
	var last *harness.CampaignResult
	seeds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = harness.RunGPUCampaign(harness.CampaignConfig{
			SysCfg:    viper.SmallCacheConfig(),
			TestCfg:   testCfg,
			BaseSeed:  1,
			BatchSize: 8,
			SaturateK: 8,
			MaxSeeds:  512,
			Mode:      mode,
		})
		if len(last.Failures) != 0 {
			b.Fatalf("campaign failed: seed %d: %v", last.Failures[0].Seed, last.Failures[0].Failures[0])
		}
		seeds += last.SeedsRun
	}
	b.StopTimer()
	b.ReportMetric(float64(seeds)/b.Elapsed().Seconds(), "seeds/sec")
	b.ReportMetric(float64(last.CellsAtSaturation), "cells-at-saturation")
	b.ReportMetric(float64(last.SeedsToSaturation), "seeds-to-saturation")
}

// BenchmarkAxiomaticChecker measures the offline verifier's throughput
// over a recorded correct execution.
func BenchmarkAxiomaticChecker(b *testing.B) {
	bld := harness.BuildGPU(viper.SmallCacheConfig())
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.NumWavefronts = 16
	cfg.EpisodesPerThread = 10
	cfg.ActionsPerEpisode = 50
	cfg.NumDataVars = 1024
	cfg.RecordTrace = true
	rep := core.New(bld.K, bld.Sys, cfg).Run()
	if !rep.Passed() {
		b.Fatal("correct run failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := checker.Verify(rep.Trace); len(vs) != 0 {
			b.Fatalf("checker flagged a correct trace: %v", vs[0])
		}
	}
	b.ReportMetric(float64(len(rep.Trace.Ops)), "trace-ops")
}

// BenchmarkCampaignForkLargeCache / ResetLargeCache measure the
// warm-fork path against the per-seed reset path on large cache arrays
// (the paper's 256KB/1MB "large" configuration) under short runs.
// Reset no longer scans capacity — the arrays index their valid lines —
// so what separates the two is a fork's journal undo against a reset's
// clearing of the lines the seed installed: the ratio sits near 1.1x.
// CI requires the median fork rate to be at least 0.9x the median
// reset rate (never slower), from five reads of each.
func BenchmarkCampaignForkLargeCache(b *testing.B)  { benchForkCampaign(b, true) }
func BenchmarkCampaignResetLargeCache(b *testing.B) { benchForkCampaign(b, false) }

func benchForkCampaign(b *testing.B, fork bool) {
	b.Helper()
	testCfg := core.DefaultConfig()
	testCfg.NumWavefronts = 2
	testCfg.EpisodesPerThread = 1
	testCfg.ActionsPerEpisode = 4
	testCfg.NumSyncVars = 2
	testCfg.NumDataVars = 256
	seeds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := harness.RunGPUCampaign(harness.CampaignConfig{
			SysCfg:    viper.LargeCacheConfig(),
			TestCfg:   testCfg,
			BaseSeed:  uint64(i)*1000 + 1,
			Workers:   2,
			BatchSize: 32,
			MaxSeeds:  128,
			Fork:      fork,
		})
		if len(res.Failures) != 0 {
			b.Fatalf("campaign failed: seed %d: %v", res.Failures[0].Seed, res.Failures[0].Failures[0])
		}
		seeds += res.SeedsRun
	}
	b.StopTimer()
	b.ReportMetric(float64(seeds)/b.Elapsed().Seconds(), "seeds/sec")
}

// goldenArtifact loads the repo's reference failing artifact (the one
// TestGoldenArtifactReplay pins), the common subject for the replay
// benchmarks.
func goldenArtifact(b *testing.B) *harness.Artifact {
	b.Helper()
	a, err := harness.LoadArtifact("internal/harness/testdata/replay-gpu-seed5-tick1263.json")
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkReplayFull measures a complete artifact reproduction — the
// baseline a bisection probe is gated against.
func BenchmarkReplayFull(b *testing.B) {
	art := goldenArtifact(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayed, err := harness.Replay(art)
		if err == nil {
			err = harness.CheckReproduced(art, replayed)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayBisectProbe measures the repeatable phase of a
// bisection — restore the bracketing checkpoint, single-step to the
// flip — against checkpoints recorded once outside the timer. This is
// the cost of re-asking "where does it first fail?" (or of bisecting
// a different predicate) once a run has been checkpointed; the CI
// floor requires it <= 0.5x BenchmarkReplayFull.
func BenchmarkReplayBisectProbe(b *testing.B) {
	art := goldenArtifact(b)
	pass, err := harness.NewBisectPass(art, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pass.Probe()
		if err != nil {
			b.Fatal(err)
		}
		if res.FirstFailingTick == 0 || res.FirstFailingTick > res.ReportedTick {
			b.Fatalf("bisected tick %d outside (0, %d]", res.FirstFailingTick, res.ReportedTick)
		}
	}
}
