package harness

import (
	"fmt"

	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/cputester"
	"drftest/internal/viper"
)

// GPUTestConfig names one cell of Table III's GPU tester sweep.
type GPUTestConfig struct {
	Name    string
	Caches  string // "small" | "large" | "mixed"
	SysCfg  viper.Config
	TestCfg core.Config
}

// GPUTesterConfigs returns the 24 permutations of Table III:
// {small, large, mixed} caches × {100, 200} actions/episode ×
// {10, 100} episodes/WF × {10, 100} atomic locations.
// scale (0 < scale ≤ 1) shortens test lengths proportionally so the
// same sweep runs in unit tests and at full length in the harness.
func GPUTesterConfigs(seed uint64, scale float64) []GPUTestConfig {
	if scale <= 0 {
		scale = 1
	}
	shrink := func(n int) int {
		v := int(float64(n) * scale)
		if v < 2 {
			v = 2
		}
		return v
	}

	cacheCfgs := []struct {
		name string
		cfg  viper.Config
	}{
		{"small", viper.SmallCacheConfig()},
		{"large", viper.LargeCacheConfig()},
		{"mixed", viper.MixedCacheConfig()},
	}
	var out []GPUTestConfig
	id := 0
	for _, cc := range cacheCfgs {
		for _, actions := range []int{100, 200} {
			for _, episodes := range []int{10, 100} {
				for _, syncVars := range []int{10, 100} {
					tc := core.DefaultConfig()
					tc.Seed = seed + uint64(id)
					tc.NumWavefronts = 2 * cc.cfg.NumCUs
					tc.ThreadsPerWF = 4
					// An episode's acquire and release count as actions;
					// keep at least one data action between them.
					tc.ActionsPerEpisode = max(shrink(actions), 3)
					tc.EpisodesPerThread = shrink(episodes)
					tc.NumSyncVars = syncVars
					// The paper uses 1M regular locations; scaled down
					// proportionally it keeps the same sync:data ratio
					// pressure.
					tc.NumDataVars = shrink(100_000)
					out = append(out, GPUTestConfig{
						Name:    fmt.Sprintf("Test %d", id),
						Caches:  cc.name,
						SysCfg:  cc.cfg,
						TestCfg: tc,
					})
					id++
				}
			}
		}
	}
	return out
}

// BugHuntConfigs returns the paper's §V case-study run at seed: the
// small-cache system with bugs injected under a contended tester (8
// wavefronts on 4 sync and 48 data variables), whose deadlock
// threshold drops to 20 000 ticks when a dropped ack is to be caught.
func BugHuntConfigs(bugs viper.BugSet, seed uint64) (viper.Config, core.Config) {
	sys := viper.SmallCacheConfig()
	sys.Bugs = bugs
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.NumWavefronts, cfg.EpisodesPerThread, cfg.ActionsPerEpisode = 8, 8, 30
	cfg.NumSyncVars, cfg.NumDataVars, cfg.StoreFraction = 4, 48, 0.6
	if bugs.DropWBAckEvery != 0 {
		cfg.DeadlockThreshold, cfg.CheckPeriod = 20_000, 5_000
	}
	return sys, cfg
}

// CPUTesterConfigs returns the CPU tester sweep of Table III:
// {2, 4, 8} CPUs × {small, large} corepair caches × four test lengths.
func CPUTesterConfigs(seed uint64, scale float64) []CPUTestConfig {
	if scale <= 0 {
		scale = 1
	}
	var out []CPUTestConfig
	id := 0
	for _, cpus := range []int{2, 4, 8} {
		for _, size := range []string{"small", "large"} {
			for _, ops := range []int{100, 10_000, 100_000, 1_000_000} {
				cfg := cputester.DefaultConfig()
				cfg.Seed = seed + uint64(id)
				cfg.OpsPerCPU = int(float64(ops) * scale)
				if cfg.OpsPerCPU < 50 {
					cfg.OpsPerCPU = 50
				}
				cfg.NumLocations = 512
				cfg.AddressRangeBytes = 512 * 1024 * 1024 / 4096 // spread for replacements
				cc := DefaultCPUCache
				if size == "large" {
					cc = LargeCPUCache
				}
				out = append(out, CPUTestConfig{
					Name:     fmt.Sprintf("Test %d", id),
					NumCPUs:  cpus,
					Caches:   size,
					CacheCfg: cc,
					TestCfg:  cfg,
				})
				id++
			}
		}
	}
	return out
}

// CPUTestConfig names one cell of Table III's CPU tester sweep.
type CPUTestConfig struct {
	Name     string
	NumCPUs  int
	Caches   string
	CacheCfg cache.Config
	TestCfg  cputester.Config
}
