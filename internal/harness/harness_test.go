package harness

import (
	"testing"

	"drftest/internal/apps"
	"drftest/internal/directory"
)

func TestTableIIIConfigCounts(t *testing.T) {
	gpu := GPUTesterConfigs(1, 1)
	if len(gpu) != 24 {
		t.Fatalf("GPU sweep has %d configs, Table III has 24", len(gpu))
	}
	names := map[string]bool{}
	for _, c := range gpu {
		if names[c.Name] {
			t.Errorf("duplicate config name %s", c.Name)
		}
		names[c.Name] = true
	}
	cpu := CPUTesterConfigs(1, 1)
	if len(cpu) != 24 {
		t.Fatalf("CPU sweep has %d configs, Table III has 24", len(cpu))
	}
}

func TestGPUSweepSmallScale(t *testing.T) {
	cfgs := GPUTesterConfigs(7, 0.1)
	res := RunGPUSweep(cfgs[:6], 1) // small+large cache variants
	if res.Failures != 0 {
		for _, r := range res.Runs {
			for _, f := range r.Report.Failures {
				t.Errorf("%s: %s", r.Name, f.TableV())
			}
		}
		t.Fatal("tester sweep reported failures on a correct protocol")
	}
	t.Logf("union L1 %s", res.UnionL1Sum)
	t.Logf("union L2 %s", res.UnionL2Sum)
	t.Logf("total ops=%d events=%d wall=%s", res.TotalOps, res.TotalEvents, res.TotalWall)
	if res.UnionL1Sum.Coverage() < 0.7 || res.UnionL2Sum.Coverage() < 0.7 {
		t.Errorf("implausibly low tester coverage: L1 %.2f L2 %.2f",
			res.UnionL1Sum.Coverage(), res.UnionL2Sum.Coverage())
	}
}

func TestAppSuiteSmallScale(t *testing.T) {
	few := []apps.Profile{*apps.ByName("Square"), *apps.ByName("Interac"), *apps.ByName("MatMul")}
	res := RunAppSuite(AppSuiteOptions{Seed: 3, Scale: 0.25, NumWFs: 8, Profiles: few})
	if res.Faults != 0 {
		t.Fatalf("protocol faults during app suite: %d", res.Faults)
	}
	for _, r := range res.Runs {
		if !r.Res.Completed {
			t.Fatalf("%s did not complete", r.Res.App)
		}
		t.Logf("%-10s events=%-9d L1=%.0f%% L2=%.0f%% locality=%v",
			r.Res.App, r.Res.Events, 100*r.L1Sum.Coverage(), 100*r.L2Sum.Coverage(), r.Res.Locality)
	}
	t.Logf("union dir %s", res.UnionDirSum)
	// Heterogeneous app runs must reach the GPU L2's probe cells (the
	// paper's reason application testing isn't strictly dominated).
	if res.UnionDir.Hits[directory.StateU][directory.EvDMAWr] == 0 {
		t.Error("apps should exercise DMA directory transitions")
	}
}

// TestTesterBeatsAppsOnGPUCoverage is the paper's headline comparison
// (Figs. 7-9) at reduced scale: the tester union must cover at least
// as many L1/L2 transitions as the app union, using far less work.
func TestTesterBeatsAppsOnGPUCoverage(t *testing.T) {
	sweep := RunGPUSweep(GPUTesterConfigs(11, 0.15)[:8], 1)
	if sweep.Failures != 0 {
		t.Fatal("tester failures")
	}
	appRes := RunAppSuite(AppSuiteOptions{Seed: 5, Scale: 0.2, NumWFs: 8,
		Profiles: []apps.Profile{
			*apps.ByName("Square"), *apps.ByName("FFT"), *apps.ByName("Interac"),
			*apps.ByName("CM"), *apps.ByName("MatMul"), *apps.ByName("Histogram"),
		}})
	if appRes.Faults != 0 {
		t.Fatal("app faults")
	}
	// Compare over a common denominator (reachable in GPU-only runs).
	tL1, tL2 := sweep.UnionL1Sum, sweep.UnionL2Sum
	aL1 := appRes.UnionL1.Summarize(nil)
	aL2 := appRes.UnionL2.Summarize(TCCImpossibleGPUOnly())
	t.Logf("tester: L1 %.1f%%  L2 %.1f%%  events=%d", 100*tL1.Coverage(), 100*tL2.Coverage(), sweep.TotalEvents)
	t.Logf("apps  : L1 %.1f%%  L2 %.1f%%  events=%d", 100*aL1.Coverage(), 100*aL2.Coverage(), appRes.TotalEvents)
	if tL1.Active < aL1.Active {
		t.Errorf("apps cover more L1 transitions (%d) than tester (%d)", aL1.Active, tL1.Active)
	}
	if tL2.Active < aL2.Active {
		t.Errorf("apps cover more L2 transitions (%d) than tester (%d)", aL2.Active, tL2.Active)
	}
	t.Logf("tester inactive L1 cells: %v", sweep.UnionL1.InactiveCells(nil))
	t.Logf("tester inactive L2 cells: %v", sweep.UnionL2.InactiveCells(TCCImpossibleGPUOnly()))
	t.Logf("apps inactive L2 cells: %v", appRes.UnionL2.InactiveCells(TCCImpossibleGPUOnly()))
}

// TestSmallScaleGPUTesterReachesDirectoryData pins the floor under the
// sweep's episode length: at the smallest scale the figures run (0.02)
// an episode still holds a data action between its acquire and
// release, so the GPU tester on the directory (Fig. 10(c)) fetches and
// writes lines, not only atomics.
func TestSmallScaleGPUTesterReachesDirectoryData(t *testing.T) {
	cfg := GPUTesterConfigs(1, 0.02)[0]
	rep, dir := RunGPUTesterOnDirectory(cfg)
	if !rep.Passed() {
		t.Fatalf("GPU tester on the directory failed: %v", rep.Failures)
	}
	for _, ev := range []int{directory.EvGPURd, directory.EvGPUWr} {
		var hits uint64
		for st := range dir.Hits {
			hits += dir.Hits[st][ev]
		}
		if hits == 0 {
			t.Errorf("%s never fired at scale 0.02 (ActionsPerEpisode %d)", directory.Events[ev], cfg.TestCfg.ActionsPerEpisode)
		}
	}
}

// TestFig10Shape reproduces the §IV.C conclusion: GPU+CPU tester union
// beats apps on the directory, while apps uniquely reach DMA cells.
func TestFig10Shape(t *testing.T) {
	gpuCfgs := GPUTesterConfigs(21, 0.1)
	_, gpuDir := RunGPUTesterOnDirectory(gpuCfgs[0])
	_, gpuDir2 := RunGPUTesterOnDirectory(gpuCfgs[9])
	gpuDir.Merge(gpuDir2)
	cpuRes := RunCPUSweep(CPUTesterConfigs(23, 0.02)[:6], 1)
	if cpuRes.Failures != 0 {
		t.Fatal("CPU tester failures")
	}
	union := gpuDir.Clone()
	union.Merge(cpuRes.UnionDir)
	unionSum := union.Summarize(nil)

	appRes := RunAppSuite(AppSuiteOptions{Seed: 9, Scale: 0.15, NumWFs: 8,
		Profiles: []apps.Profile{*apps.ByName("Square"), *apps.ByName("Interac"), *apps.ByName("DNNMark_Conv")}})
	appSum := appRes.UnionDirSum

	t.Logf("directory coverage: testers union %.1f%%  apps %.1f%%",
		100*unionSum.Coverage(), 100*appSum.Coverage())
	if unionSum.Active <= appSum.Active {
		t.Errorf("tester union (%d active) should beat apps (%d active) on the directory",
			unionSum.Active, appSum.Active)
	}
	// Apps must uniquely activate DMA transitions.
	dmaOnly := 0
	for _, ev := range []int{directory.EvDMARd, directory.EvDMAWr} {
		for st := 0; st < 4; st++ {
			if appRes.UnionDir.Hits[st][ev] > 0 && union.Hits[st][ev] == 0 {
				dmaOnly++
			}
		}
	}
	if dmaOnly == 0 {
		t.Error("apps should uniquely activate DMA directory transitions")
	}
	t.Logf("apps uniquely activate %d DMA cells", dmaOnly)
}
