package explore

import (
	"reflect"
	"testing"

	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// exploreSysCfg is the reference exploration system: the smallest
// interesting GPU — 2 CUs over one L2 slice with tiny caches, no
// response jitter (the chooser, not latency randomness, is the source
// of reordering in exhaustive mode).
func exploreSysCfg() viper.Config {
	c := viper.SmallCacheConfig()
	c.NumCUs = 2
	c.NumL2Slices = 1
	c.RespJitter = 0
	return c
}

// exploreTestCfg is the reference exploration workload: 2 wavefronts,
// 2 variables (1 sync + 1 data), short episodes — the acceptance
// criteria's "clean 2-WF/2-variable config".
func exploreTestCfg(seed uint64) core.Config {
	return core.Config{
		Seed:              seed,
		NumWavefronts:     2,
		ThreadsPerWF:      1,
		EpisodesPerThread: 1,
		ActionsPerEpisode: 6,
		NumSyncVars:       1,
		NumDataVars:       1,
		AddressRangeBytes: 64,
		StoreFraction:     0.6,
		AtomicDelta:       1,
		DeadlockThreshold: 20_000,
		CheckPeriod:       5_000,
		LogCapacity:       256,
	}
}

// exploreSpreadCfg spreads more data variables across distinct cache
// lines so disjoint-line traffic actually exists — the workload shape
// where the independence relation has something to commute.
func exploreSpreadCfg(seed uint64) core.Config {
	c := exploreTestCfg(seed)
	c.ThreadsPerWF = 2
	c.ActionsPerEpisode = 8
	c.NumSyncVars = 2
	c.NumDataVars = 8
	c.AddressRangeBytes = 64 * 64
	return c
}

// exploreBigSetsSys widens the caches so distinct lines rarely share a
// set: the geometry where independence-based pruning pays off (the tiny
// 2-set L1 of SmallCacheConfig makes almost every line pair conflict).
func exploreBigSetsSys() viper.Config {
	c := exploreSysCfg()
	c.L1 = cache.Config{SizeBytes: 4096, LineSize: 64, Assoc: 2}
	c.L2 = cache.Config{SizeBytes: 16384, LineSize: 64, Assoc: 2}
	return c
}

// exploreWideCfg is the prune-ratio reference workload: still 2
// wavefronts, but enough disjoint-line data variables that most
// co-enabled event pairs commute.
func exploreWideCfg(seed uint64) core.Config {
	c := exploreTestCfg(seed)
	c.ThreadsPerWF = 2
	c.ActionsPerEpisode = 10
	c.NumSyncVars = 1
	c.NumDataVars = 16
	c.AddressRangeBytes = 16 * 64 * 8
	c.StoreFraction = 0.7
	return c
}

// exploreRichCfg is a denser 2-wavefront workload (2 lanes, 8 episodes)
// whose longer history can leave stale lines in an L1 — the shape the
// StaleAcquire bug needs.
func exploreRichCfg(seed uint64) core.Config {
	c := exploreTestCfg(seed)
	c.ThreadsPerWF = 2
	c.EpisodesPerThread = 8
	c.ActionsPerEpisode = 30
	c.NumSyncVars = 2
	c.NumDataVars = 12
	c.AddressRangeBytes = 2048
	return c
}

// defaultRunFails runs the config once under the default FIFO schedule
// (stream checking on, like the explorer) and reports whether anything
// was flagged.
func defaultRunFails(sys viper.Config, tc core.Config) bool {
	k := sim.NewKernel()
	col := coverage.NewCollector(viper.NewTCPSpec(), viper.NewTCCSpec())
	s := viper.NewSystem(k, sys, col)
	tc.StreamCheck = true
	tester := core.New(k, s, tc)
	rep := tester.Run()
	return len(rep.Failures) > 0 || len(rep.StreamViolations) > 0
}

// TestExploreCleanReference is the headline acceptance check: on the
// clean 2-WF/2-variable reference config the explorer enumerates the
// full bounded schedule space and reports no violation in any schedule
// up to the depth bound.
func TestExploreCleanReference(t *testing.T) {
	res, err := Run(Config{
		SysCfg:  exploreSysCfg(),
		TestCfg: exploreTestCfg(1),
		Depth:   6,
		Budget:  100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("clean reference config produced a violation: %+v", res.Violation)
	}
	if !res.Complete() {
		t.Fatalf("bounded space not fully enumerated: %+v", res)
	}
	// Every branching point on this config is binary and the workload
	// has more than Depth of them, so the bounded space is exactly
	// 2^Depth schedules. Pinning the count keeps enumeration
	// deterministic across refactors.
	if want := uint64(1) << 6; res.Schedules != want {
		t.Fatalf("expected %d schedules at depth 6, got %d", want, res.Schedules)
	}
	if res.ChoicePoints == 0 {
		t.Fatal("no branching choice points on a 2-WF config")
	}
	t.Logf("clean: %d schedules, %d choice points, depth-limited=%v",
		res.Schedules, res.ChoicePoints, res.DepthLimited)
}

// TestExplorePruneRatio pins the partial-order reduction's value: on
// the reference wide config, DPOR-style pruning must explore at most
// half the schedules naive enumeration does, and both must agree the
// protocol is clean.
func TestExplorePruneRatio(t *testing.T) {
	base := Config{
		SysCfg:  exploreBigSetsSys(),
		TestCfg: exploreWideCfg(1),
		Depth:   8,
		Budget:  100_000,
	}

	naiveCfg := base
	res, err := Run(naiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	pruneCfg := base
	pruneCfg.Prune = true
	pres, err := Run(pruneCfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"naive": res, "pruned": pres} {
		if r.Violation != nil {
			t.Fatalf("%s exploration flagged a clean protocol: %+v", name, r.Violation)
		}
		if !r.Complete() {
			t.Fatalf("%s exploration incomplete: %+v", name, r)
		}
	}
	explored := pres.Schedules + pres.PrunedPaths
	t.Logf("naive %d schedules; pruned %d (%d completed + %d abandoned), ratio %.3f",
		res.Schedules, explored, pres.Schedules, pres.PrunedPaths,
		float64(explored)/float64(res.Schedules))
	if explored*2 > res.Schedules {
		t.Fatalf("pruning too weak: explored %d of %d naive schedules (> 0.5x)",
			explored, res.Schedules)
	}
}

// TestExploreBudget pins budget accounting: enumeration stops exactly
// at the budget, counting completed and abandoned schedules alike.
func TestExploreBudget(t *testing.T) {
	res, err := Run(Config{
		SysCfg:  exploreSysCfg(),
		TestCfg: exploreTestCfg(1),
		Depth:   10,
		Budget:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetExhausted {
		t.Fatalf("expected budget exhaustion: %+v", res)
	}
	if got := res.Schedules + res.PrunedPaths; got != 10 {
		t.Fatalf("expected exactly 10 explored paths at budget 10, got %d", got)
	}
	if res.Complete() {
		t.Fatal("budget-exhausted exploration must not report completeness")
	}
}

// TestExploreDeterministic pins that exploration itself is
// reproducible: two one-worker explorations of the same config produce
// identical results, cut and restore counts included
// (TestParallelMatchesSerial covers more workers).
func TestExploreDeterministic(t *testing.T) {
	cfg := Config{
		SysCfg:  exploreBigSetsSys(),
		TestCfg: exploreWideCfg(3),
		Depth:   8,
		Budget:  100_000,
		Prune:   true,
		Workers: 1,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Host-time means are the only fields allowed to differ.
	a.NsPerCut, a.NsPerRestore, b.NsPerCut, b.NsPerRestore = 0, 0, 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("explorations diverged:\n  first:  %+v\n  second: %+v", a, b)
	}
}
