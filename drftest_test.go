package drftest_test

import (
	"strings"
	"testing"

	"drftest"
)

func TestPublicQuickstartPath(t *testing.T) {
	cfg := drftest.DefaultTesterConfig()
	cfg.Seed = 5
	cfg.NumWavefronts = 8
	cfg.EpisodesPerThread = 4
	cfg.ActionsPerEpisode = 30
	res := drftest.RunGPUTester(drftest.SmallCaches(), cfg)
	if !res.Report.Passed() {
		t.Fatalf("correct protocol failed: %v", res.Report.Failures[0])
	}
	if res.L1.Active == 0 || res.L2.Active == 0 {
		t.Fatal("no coverage recorded")
	}
	if res.L1Matrix == nil || res.L2Matrix == nil {
		t.Fatal("matrices not exposed")
	}
}

func TestPublicBugPath(t *testing.T) {
	detected := false
	for seed := uint64(1); seed <= 8 && !detected; seed++ {
		cfg := drftest.DefaultTesterConfig()
		cfg.Seed = seed
		cfg.NumWavefronts = 8
		cfg.EpisodesPerThread = 8
		cfg.ActionsPerEpisode = 30
		cfg.NumSyncVars = 4
		cfg.NumDataVars = 48
		cfg.StoreFraction = 0.6

		k := drftest.NewKernel()
		sysCfg := drftest.SmallCaches()
		sysCfg.Bugs = drftest.BugSet{LostWriteRace: true}
		sys, col := drftest.NewSystem(k, sysCfg)
		rep := drftest.NewTester(k, sys, cfg).Run()
		if !rep.Passed() {
			detected = true
			tv := rep.Failures[0].TableV()
			if !strings.Contains(tv, "Thread ID") {
				t.Fatalf("TableV output malformed:\n%s", tv)
			}
		}
		_ = col
	}
	if !detected {
		t.Fatal("public bug-injection path never detected the bug")
	}
}

func TestPublicCPUAndHeteroPaths(t *testing.T) {
	cpuCfg := drftest.DefaultCPUTesterConfig()
	cpuCfg.OpsPerCPU = 800
	cpuRes := drftest.RunCPUTester(4, cpuCfg)
	if !cpuRes.Report.Passed() {
		t.Fatalf("CPU tester failed: %v", cpuRes.Report.Failures[0])
	}
	if cpuRes.CPUL1.Active == 0 || cpuRes.Directory == nil {
		t.Fatal("CPU coverage not exposed")
	}

	gCfg := drftest.DefaultTesterConfig()
	gCfg.NumWavefronts = 4
	gCfg.EpisodesPerThread = 3
	gCfg.ActionsPerEpisode = 20
	hRes := drftest.RunGPUTesterHetero(drftest.SmallCaches(), gCfg)
	if !hRes.Report.Passed() {
		t.Fatalf("hetero GPU tester failed: %v", hRes.Report.Failures[0])
	}
	union := hRes.Directory.Clone()
	union.Merge(cpuRes.Directory)
	if got := union.Summarize(nil).Active; got <= cpuRes.Directory.Summarize(nil).Active {
		t.Fatalf("union (%d) should exceed CPU tester alone", got)
	}
}

func TestPublicImpossibleMask(t *testing.T) {
	mask := drftest.L2ImpossibleGPUOnly()
	if len(mask) == 0 {
		t.Fatal("empty Impsb mask")
	}
}

func TestPublicMultiGPUPath(t *testing.T) {
	sysCfg := drftest.SmallCaches()
	sysCfg.NumCUs = 2
	cfg := drftest.DefaultTesterConfig()
	cfg.Seed = 4
	cfg.NumWavefronts = 8
	cfg.EpisodesPerThread = 4
	cfg.ActionsPerEpisode = 30
	cfg.NumDataVars = 256
	res := drftest.RunMultiGPUTester(2, sysCfg, cfg)
	if !res.Report.Passed() {
		t.Fatalf("multi-GPU façade run failed: %v", res.Report.Failures[0])
	}
	if res.L2.Active == 0 {
		t.Fatal("no L2 coverage from multi-GPU run")
	}
}

func TestPublicWriteBackProtocol(t *testing.T) {
	sysCfg := drftest.SmallCaches()
	sysCfg.WriteBackL2 = true
	cfg := drftest.DefaultTesterConfig()
	cfg.Seed = 2
	cfg.NumWavefronts = 8
	cfg.EpisodesPerThread = 4
	cfg.ActionsPerEpisode = 30
	cfg.NumDataVars = 256
	res := drftest.RunGPUTester(sysCfg, cfg)
	if !res.Report.Passed() {
		t.Fatalf("VIPER-WB façade run failed: %v", res.Report.Failures[0])
	}
}

// TestNewSystemWriteBack: the public system constructor registers the
// write-back L2's table too, so a VIPER-WB system builds and counts its
// L2 transitions instead of panicking on an unregistered machine.
func TestNewSystemWriteBack(t *testing.T) {
	k := drftest.NewKernel()
	sysCfg := drftest.SmallCaches()
	sysCfg.WriteBackL2 = true
	sys, col := drftest.NewSystem(k, sysCfg)
	cfg := drftest.DefaultTesterConfig()
	cfg.EpisodesPerThread, cfg.ActionsPerEpisode = 2, 10
	if rep := drftest.NewTester(k, sys, cfg).Run(); !rep.Passed() {
		t.Fatalf("write-back run failed: %v", rep.Failures[0])
	}
	if col.Matrix("GPU-L2WB").Total() == 0 {
		t.Fatal("write-back L2 transitions were not counted")
	}
}
