package harness

import (
	"strings"
	"testing"

	"drftest/internal/apps"
	"drftest/internal/coverage"
	"drftest/internal/directory"
)

// TestRenderersProduceFigures drives every renderer at small scale and
// checks each figure's signature content appears — the same paths
// cmd/figures uses.
func TestRenderersProduceFigures(t *testing.T) {
	var b strings.Builder

	RenderTableI(&b)
	RenderTableII(&b)
	RenderTableIII(&b, GPUTesterConfigs(1, 0.05), CPUTesterConfigs(1, 0.05))
	RenderTableIV(&b)
	RenderFig4(&b)
	RenderFig5(&b, 1, 0.05)

	sweep := RunGPUSweep(GPUTesterConfigs(1, 0.05)[:2], 1)
	appsRes := RunAppSuite(AppSuiteOptions{Seed: 1, Scale: 0.05, NumWFs: 4,
		Profiles: []apps.Profile{*apps.ByName("Square"), *apps.ByName("CM")}})
	RenderFig6(&b, appsRes)
	RenderFig7(&b, sweep, appsRes)
	RenderFig8(&b, sweep)
	RenderFig9(&b, appsRes)

	_, gpuDir := RunGPUTesterOnDirectory(GPUTesterConfigs(1, 0.05)[0])
	cpuRes := RunCPUSweep(CPUTesterConfigs(1, 0.01)[:2], 1)
	union := gpuDir.Clone()
	union.Merge(cpuRes.UnionDir)
	RenderFig10(&b, &Fig10Result{
		Apps: appsRes.UnionDir, CPUTester: cpuRes.UnionDir,
		GPUTester: gpuDir, TesterUnion: union,
	})
	SpeedComparison(&b, sweep, appsRes)
	Banner(&b, "done")

	out := b.String()
	for _, want := range []string{
		"TABLE I. GPU L1 CACHE EVENTS",
		"TABLE II. GPU L2 CACHE EVENTS",
		"TABLE III. TESTER CONFIGURATIONS",
		"TABLE IV. APPLICATIONS",
		"Fig. 4: state transitions",
		"Fig. 5(a): small caches",
		"Fig. 5(b): large caches",
		"Fig. 6: data locality",
		"Fig. 7(a): GPU tester",
		"Fig. 7(b): all applications",
		"Fig. 8: GPU tester transition coverage",
		"Fig. 9: application transition coverage",
		"Fig. 10: system directory transitions",
		"(UNION)",
		"speedup to similar coverage",
		"streaming",
		"Active",
		"Undef",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figures missing %q", want)
		}
	}
	if len(out) < 4000 {
		t.Errorf("suspiciously small render output: %d bytes", len(out))
	}
}

// TestFig10ClassesConsistent: every grid cell class in the Fig. 10
// renderers matches the underlying matrices.
func TestFig10ClassesConsistent(t *testing.T) {
	m := coverage.NewMatrix(directory.NewSpec())
	m.Hits[directory.StateU][directory.EvGPURd] = 3
	var b strings.Builder
	m.RenderClassGrid(&b, nil)
	if !strings.Contains(b.String(), "Active") {
		t.Fatal("grid lost the active cell")
	}
}
