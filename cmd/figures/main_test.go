package main

import (
	"os"
	"strings"
	"testing"

	"drftest/internal/golden"
)

// TestMain doubles as the figures command: re-executing the test
// binary with golden.RunMainEnv set runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv(golden.RunMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenFig9: Fig. 9 from a serial suite prints the committed
// table, byte for byte outside host time.
func TestGoldenFig9(t *testing.T) {
	golden.Check(t, "figures_fig9_scale0.02.txt", "figures -exp fig9 -scale 0.02 -parallel 1",
		golden.RunMain(t, "-exp", "fig9", "-scale", "0.02", "-parallel", "1"))
}

// TestGoldenFig6Fig10: Fig. 6 (the locality tracker's breakdowns) and
// Fig. 10 (the directory's coverage under applications, the CPU tester
// sweep and the GPU tester) print the committed tables.
func TestGoldenFig6Fig10(t *testing.T) {
	golden.Check(t, "figures_fig6_fig10_scale0.02.txt", "figures -exp fig6,fig10 -scale 0.02 -parallel 1",
		golden.RunMain(t, "-exp", "fig6,fig10", "-scale", "0.02", "-parallel", "1"))
}

// TestGoldenProtocols: the write-back protocol's coverage and bug
// detection, the two protocols' projected run times, the two-GPU
// system (which drives the write-through L2's probe path) and the
// transition tables print the committed tables.
func TestGoldenProtocols(t *testing.T) {
	golden.Check(t, "figures_protocolwb_protocolperf_multigpu_specs_scale0.02.txt",
		"figures -exp protocolwb,protocolperf,multigpu,specs -scale 0.02 -parallel 1",
		golden.RunMain(t, "-exp", "protocolwb,protocolperf,multigpu,specs", "-scale", "0.02", "-parallel", "1"))
}

// TestGoldenExperiments: the paper's tables, Figs. 4, 5, 7 and 8, the
// case study and the speed comparison print the committed output, byte
// for byte outside host time. Figs. 5 and 7 and the speed summary run
// the application suite, so these pin the directory, moesi and DMA
// paths along with the GPU tester's.
func TestGoldenExperiments(t *testing.T) {
	for _, exp := range []string{"tableI,tableII,tableIII,tableIV,tableV", "fig4", "fig5", "fig7", "fig8", "casestudy", "speed"} {
		name := "figures_" + strings.ReplaceAll(exp, ",", "_") + "_scale0.02.txt"
		t.Run(exp, func(t *testing.T) {
			golden.Check(t, name, "figures -exp "+exp+" -scale 0.02 -parallel 1",
				golden.RunMain(t, "-exp", exp, "-scale", "0.02", "-parallel", "1"))
		})
	}
}
