package harness

import (
	"testing"

	"drftest/internal/apps"
	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// TestHorizonCoversModelLatencies pins the traffic assumption the
// kernel's calendar wheel is sized by (sim.wheelSize, DESIGN §9): on
// every shipped shape at most 1 % of schedules are far enough out to
// take the overflow heap — today only the tester's 5 000-tick heartbeat
// and the host driver's 400-tick poll are. A latency change that
// defeats the wheel fails here, as a count, instead of costing 20 % of
// throughput somewhere a benchmark may or may not look.
func TestHorizonCoversModelLatencies(t *testing.T) {
	tester := func(sys viper.Config, tc core.Config) func() *sim.Kernel {
		return func() *sim.Kernel {
			b := BuildGPU(sys)
			if rep := core.New(b.K, b.Sys, tc).Run(); !rep.Passed() {
				t.Fatalf("tester failed: %v", rep.Failures)
			}
			return b.K
		}
	}
	shape := core.DefaultConfig()
	shape.NumWavefronts, shape.EpisodesPerThread, shape.ActionsPerEpisode = 8, 4, 50
	wb := viper.SmallCacheConfig()
	wb.WriteBackL2 = true
	// The explorer's reference configuration (896 schedules at depth
	// 32), in the default order: a schedule's delays are the same in
	// every order.
	exploreSys := viper.SmallCacheConfig()
	exploreSys.NumCUs, exploreSys.NumL2Slices = 2, 1
	exploreSys.L1 = cache.Config{SizeBytes: 4096, LineSize: 64, Assoc: 2}
	exploreSys.L2 = cache.Config{SizeBytes: 16384, LineSize: 64, Assoc: 2}
	exploreTest := core.Config{
		Seed: 13, NumWavefronts: 2, ThreadsPerWF: 2, EpisodesPerThread: 1, ActionsPerEpisode: 10,
		NumSyncVars: 1, NumDataVars: 16, AddressRangeBytes: 16 * 64 * 8, StoreFraction: 0.7, AtomicDelta: 1,
		DeadlockThreshold: 20_000, CheckPeriod: 5_000, LogCapacity: 256,
	}

	for _, tc := range []struct {
		name string
		run  func() *sim.Kernel
	}{
		{"tester, small caches", tester(viper.SmallCacheConfig(), shape)},
		{"tester, large caches", tester(viper.LargeCacheConfig(), shape)},
		{"tester, write-back TCC", tester(wb, shape)},
		{"explorer reference", tester(exploreSys, exploreTest)},
		{"swarm corner, widest jitter", func() *sim.Kernel {
			cfg := CampaignConfig{SysCfg: viper.SmallCacheConfig(), TestCfg: shape, Mode: CampaignSwarm}
			levels := CornerLevels{}
			levels[axisJitter], levels[axisScale] = 2, 2
			w := NewRunContext(cfg)
			w.RunSeed(1, NewCornerCache(cfg.TestCfg, cfg.SysCfg).Corner(levels))
			if len(w.failures) > 0 {
				t.Fatalf("seed failed: %v", w.failures[0].Failures)
			}
			return w.run.K
		}},
		{"heterogeneous app with DMA", func() *sim.Kernel {
			opts := AppSuiteOptions{NumCPUs: 2, NumWFs: 16, Lanes: 4}
			b := BuildHetero(viper.DefaultConfig(), opts.NumCPUs, DefaultCPUCache)
			if res := runAppPhases(b, scaleProfile(apps.Profiles[0], 0.08), opts, 1); !res.Completed {
				t.Fatal("application did not complete")
			}
			return b.K
		}},
	} {
		k := tc.run()
		beyond, all := k.BeyondHorizon(), k.Executed()
		t.Logf("%s: %d of %d schedules beyond the horizon (%.2f %%)", tc.name, beyond, all, 100*float64(beyond)/float64(all))
		if all == 0 || beyond*100 > all {
			t.Errorf("%s: %d of %d schedules went beyond the wheel's horizon, want at most 1 %%", tc.name, beyond, all)
		}
	}
}
