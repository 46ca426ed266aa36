package harness

import (
	"testing"

	"drftest/internal/core"
	"drftest/internal/viper"
)

// TestSoakLongRandomRuns hammers the full stack with larger random
// workloads across several seeds and topologies: zero failures, full
// completion, clean final audits. Skipped with -short.
func TestSoakLongRandomRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	type variant struct {
		name string
		sys  viper.Config
	}
	variants := []variant{
		{"small", viper.SmallCacheConfig()},
		{"large", viper.LargeCacheConfig()},
		{"mixed", viper.MixedCacheConfig()},
	}
	banked := viper.SmallCacheConfig()
	banked.NumL2Slices = 4
	variants = append(variants, variant{"banked", banked})

	for _, v := range variants {
		for seed := uint64(1); seed <= 3; seed++ {
			b := BuildGPU(v.sys)
			cfg := core.DefaultConfig()
			cfg.Seed = seed
			cfg.NumWavefronts = 16
			cfg.ThreadsPerWF = 4
			cfg.EpisodesPerThread = 20
			cfg.ActionsPerEpisode = 50
			cfg.NumSyncVars = 20
			cfg.NumDataVars = 2000
			rep := core.New(b.K, b.Sys, cfg).Run()
			if !rep.Passed() {
				t.Fatalf("%s seed %d: %s", v.name, seed, rep.Failures[0].TableV())
			}
			if rep.OpsCompleted != cfg.TotalActions() {
				t.Fatalf("%s seed %d: %d of %d ops completed", v.name, seed, rep.OpsCompleted, cfg.TotalActions())
			}
		}
	}
}

// TestSoakHeterogeneous runs GPU tester + host CPU traffic + DMA on
// the same heterogeneous system simultaneously — not a paper
// experiment (the paper runs testers separately), but a stress of the
// directory's cross-client race handling.
func TestSoakHeterogeneous(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		b := BuildHetero(viper.SmallCacheConfig(), 2, DefaultCPUCache)
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.NumWavefronts = 8
		cfg.EpisodesPerThread = 10
		cfg.ActionsPerEpisode = 40
		// Tester variables live far from the host's control block, so
		// the concurrent host traffic cannot race the checked data.
		cfg.AddressRangeBytes = 0x8000
		tester := core.New(b.K, b.GPU, cfg)

		host := b.resetHost(seed, 200, 2000)
		// Host polling only its own control block: no overlap with the
		// tester's address range.
		host.sharedProb = 0
		host.start()
		tester.Start()
		b.K.RunUntilIdle()
		host.stop()
		tester.Finish()
		tester.AuditStore(b.Store)
		if fails := tester.Failures(); len(fails) > 0 {
			t.Fatalf("seed %d: %s", seed, fails[0].TableV())
		}
	}
}
