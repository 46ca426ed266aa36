// Command figures regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md for the experiment index).
//
// Usage:
//
//	figures [-exp all|tableI|tableII|tableIII|tableIV|tableV|fig4|fig5|fig6|fig7|fig8|fig9|fig10|speed|casestudy|multigpu|protocolwb|specs]
//	        [-scale 0.3] [-seed 1] [-out file]
//
// scale shortens test and application lengths proportionally; 1.0 is
// the paper-scale sweep (minutes), the default 0.3 a faithful but
// faster rendition.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"drftest/internal/apps"
	"drftest/internal/core"
	"drftest/internal/directory"
	"drftest/internal/harness"
	"drftest/internal/moesi"
	"drftest/internal/protocol"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

func main() {
	exp := flag.String("exp", "all", "experiment to regenerate (comma-separated, or 'all')")
	scale := flag.Float64("scale", 0.3, "test-length scale factor (1.0 = paper scale)")
	seed := flag.Uint64("seed", 1, "master random seed")
	out := flag.String("out", "", "output file (default stdout)")
	workers := flag.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS, 1 = serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (pprof) to this file at exit")
	flag.Parse()

	stopProf, err := harness.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	g := &gen{w: w, seed: *seed, scale: *scale, workers: *workers}
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]

	run := func(name string, fn func()) {
		if all || want[name] {
			harness.Banner(w, name)
			fn()
			fmt.Fprintln(w)
		}
	}

	run("tableI", func() { harness.RenderTableI(w) })
	run("tableII", func() { harness.RenderTableII(w) })
	run("tableIII", func() {
		harness.RenderTableIII(w, harness.GPUTesterConfigs(g.seed, g.scale), harness.CPUTesterConfigs(g.seed, g.scale))
	})
	run("tableIV", func() { harness.RenderTableIV(w) })
	run("fig4", func() { harness.RenderFig4(w) })
	run("fig5", func() { harness.RenderFig5(w, g.seed, g.scale) })
	run("fig6", func() { harness.RenderFig6(w, g.apps()) })
	run("fig7", func() { harness.RenderFig7(w, g.sweep(), g.apps()) })
	run("fig8", func() { harness.RenderFig8(w, g.sweep()) })
	run("fig9", func() { harness.RenderFig9(w, g.apps()) })
	run("fig10", func() { harness.RenderFig10(w, g.fig10()) })
	run("speed", func() { harness.SpeedComparison(w, g.sweep(), g.apps()) })
	run("tableV", func() { g.tableV() })
	run("casestudy", func() { g.caseStudy() })
	run("multigpu", func() { g.multiGPU() })
	run("protocolwb", func() { g.protocolWB() })
	run("specs", func() { dumpSpecs(w) })
	run("protocolperf", func() { g.protocolPerf() })
}

// protocolPerf is the performance-projection use of the simulator:
// the same application workloads on write-through VIPER vs VIPER-WB.
// The write-back L2 absorbs stores and releases drain at L2
// acceptance, so store/synchronization-heavy kernels finish in fewer
// simulated cycles.
func (g *gen) protocolPerf() {
	fmt.Fprintln(g.w, "Protocol performance projection: VIPER (write-through) vs VIPER-WB (write-back L2)")
	fmt.Fprintf(g.w, "  %-14s %14s %14s %9s\n", "app", "WT sim ticks", "WB sim ticks", "speedup")
	for _, name := range []string{"Square", "MatMul", "FFT", "Histogram", "Interac", "CM"} {
		prof := *apps.ByName(name)
		prof.MemOpsPerLane = int(float64(prof.MemOpsPerLane) * g.scale)
		if prof.MemOpsPerLane < 20 {
			prof.MemOpsPerLane = 20
		}
		run := func(wb bool) uint64 {
			sysCfg := viper.DefaultConfig()
			sysCfg.WriteBackL2 = wb
			k := sim.NewKernel()
			sys := viper.NewSystem(k, sysCfg, nil)
			res := apps.Run(k, sys, prof, g.seed, 16, 4, 0)
			if !res.Completed || res.Faults != 0 {
				fmt.Fprintf(os.Stderr, "protocolperf: %s (wb=%v) did not complete cleanly\n", name, wb)
			}
			return res.SimTicks
		}
		wt := run(false)
		wbt := run(true)
		fmt.Fprintf(g.w, "  %-14s %14d %14d %8.2fx\n", name, wt, wbt, float64(wt)/float64(wbt))
	}
}

// dumpSpecs prints every protocol table in the SLICC-like textual
// form (round-trippable through protocol.ParseSpec).
func dumpSpecs(w io.Writer) {
	for _, spec := range []*protocol.Spec{
		viper.NewTCPSpec(), viper.NewTCCSpec(), viper.NewTCCWBSpec(),
		moesi.NewCPUSpec(), directory.NewSpec(),
	} {
		if err := spec.Format(w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		fmt.Fprintln(w)
	}
}

// gen memoizes the expensive sweeps so composite invocations share
// them.
type gen struct {
	w       io.Writer
	seed    uint64
	scale   float64
	workers int

	sweepRes *harness.GPUSweepResult
	appsRes  *harness.AppSuiteResult
	fig10Res *harness.Fig10Result
}

func (g *gen) sweep() *harness.GPUSweepResult {
	if g.sweepRes == nil {
		fmt.Fprintln(os.Stderr, "running GPU tester sweep (24 configurations)...")
		g.sweepRes = harness.RunGPUSweep(harness.GPUTesterConfigs(g.seed, g.scale), g.workers)
	}
	return g.sweepRes
}

func (g *gen) apps() *harness.AppSuiteResult {
	if g.appsRes == nil {
		fmt.Fprintln(os.Stderr, "running application suite (26 workloads)...")
		g.appsRes = harness.RunAppSuite(harness.AppSuiteOptions{Seed: g.seed, Scale: g.scale, Workers: g.workers})
	}
	return g.appsRes
}

func (g *gen) fig10() *harness.Fig10Result {
	if g.fig10Res == nil {
		fmt.Fprintln(os.Stderr, "running directory experiments (GPU tester, CPU tester sweep, apps)...")
		cfgs := harness.GPUTesterConfigs(g.seed, g.scale)
		_, gpuDir := harness.RunGPUTesterOnDirectory(cfgs[0])
		_, gpuDir2 := harness.RunGPUTesterOnDirectory(cfgs[9])
		gpuDir.Merge(gpuDir2)
		cpuRes := harness.RunCPUSweep(harness.CPUTesterConfigs(g.seed+7, g.scale*0.2), g.workers)
		union := gpuDir.Clone()
		union.Merge(cpuRes.UnionDir)
		g.fig10Res = &harness.Fig10Result{
			Apps:        g.apps().UnionDir,
			CPUTester:   cpuRes.UnionDir,
			GPUTester:   gpuDir,
			TesterUnion: union,
		}
	}
	return g.fig10Res
}

// tableV reproduces the read–write inconsistency report by injecting
// the lost-write race and printing the tester's failure output.
func (g *gen) tableV() {
	fmt.Fprintln(g.w, "TABLE V. AN EXAMPLE OF A READ-WRITE INCONSISTENCY BUG")
	for seed := g.seed; seed < g.seed+32; seed++ {
		rep := runBug(viper.BugSet{LostWriteRace: true}, seed)
		for _, f := range rep.Failures {
			if f.Kind == core.FailValueMismatch && f.LastReader != nil && f.LastWriter != nil {
				fmt.Fprint(g.w, f.TableV())
				return
			}
		}
	}
	fmt.Fprintln(g.w, "(no value-mismatch failure observed; try another seed)")
}

// caseStudy reproduces §V: each injected bug class is detected.
func (g *gen) caseStudy() {
	fmt.Fprintln(g.w, "Case study (§V): injected bugs and how the tester catches them")
	for _, b := range viper.Bugs {
		detected := ""
		for seed := g.seed; seed < g.seed+8; seed++ {
			rep := runBug(b.Set, seed)
			if len(rep.Failures) > 0 {
				detected = fmt.Sprintf("detected at tick %d as %s (seed %d)",
					rep.Failures[0].Tick, rep.Failures[0].Kind, seed)
				break
			}
		}
		if detected == "" {
			detected = "NOT DETECTED"
		}
		fmt.Fprintf(g.w, "  %-42s %s\n", b.Doc+":", detected)
	}
}

// multiGPU is the §III.B topology extension: one tester spanning two
// GPUs over a shared directory reaches the L2 probe transitions that
// are Impossible in any single-GPU system.
func (g *gen) multiGPU() {
	fmt.Fprintln(g.w, "Extension: multi-GPU testing (§III.B \"diverse topologies\")")
	gpuCfg := viper.SmallCacheConfig()
	gpuCfg.NumCUs = 4
	b := harness.BuildMultiGPU(gpuCfg, 2)
	cfg := core.DefaultConfig()
	cfg.Seed = g.seed
	cfg.NumWavefronts = 16
	cfg.EpisodesPerThread = int(50 * g.scale)
	if cfg.EpisodesPerThread < 4 {
		cfg.EpisodesPerThread = 4
	}
	cfg.ActionsPerEpisode = 60
	cfg.NumSyncVars = 8
	cfg.NumDataVars = 1024
	tester := core.NewMulti(b.K, b.GPUs, cfg)
	tester.Start()
	b.K.RunUntilIdle()
	tester.Finish()
	tester.AuditStore(b.Store)
	if fails := tester.Failures(); len(fails) > 0 {
		fmt.Fprintf(g.w, "  FAILED: %s\n", fails[0].Message)
		return
	}
	l2 := b.Col.Matrix("GPU-L2").Summarize(harness.TCCImpossibleMultiGPU())
	l1 := b.Col.Matrix("GPU-L1").Summarize(nil)
	fmt.Fprintf(g.w, "  2 GPUs x 4 CUs, one DRF tester spanning both\n")
	fmt.Fprintf(g.w, "  %s\n  %s\n", l1, l2)
	fmt.Fprintf(g.w, "  PrbInv row (Impsb in single-GPU systems) now active: I=%d V=%d IV=%d A=%d hits\n",
		b.Col.Matrix("GPU-L2").Hits[viper.TCCStateI][viper.TCCPrbInv],
		b.Col.Matrix("GPU-L2").Hits[viper.TCCStateV][viper.TCCPrbInv],
		b.Col.Matrix("GPU-L2").Hits[viper.TCCStateIV][viper.TCCPrbInv],
		b.Col.Matrix("GPU-L2").Hits[viper.TCCStateA][viper.TCCPrbInv])
}

// protocolWB demonstrates tester generality (§IV): the unchanged DRF
// tester validates the VIPER-WB write-back protocol variant and
// catches bugs injected into it.
func (g *gen) protocolWB() {
	fmt.Fprintln(g.w, "Extension: second protocol (VIPER-WB, write-back L2) under the unchanged tester")
	sysCfg := viper.SmallCacheConfig()
	sysCfg.WriteBackL2 = true
	b := harness.BuildGPU(sysCfg)
	cfg := core.DefaultConfig()
	cfg.Seed = g.seed
	cfg.NumWavefronts = 16
	cfg.EpisodesPerThread = int(50 * g.scale)
	if cfg.EpisodesPerThread < 6 {
		cfg.EpisodesPerThread = 6
	}
	cfg.ActionsPerEpisode = 60
	cfg.NumSyncVars = 8
	cfg.NumDataVars = 1024
	rep := core.New(b.K, b.Sys, cfg).Run()
	if !rep.Passed() {
		fmt.Fprintf(g.w, "  FAILED: %s\n", rep.Failures[0].Message)
		return
	}
	l2 := b.Col.Matrix("GPU-L2WB").Summarize(harness.TCCWBImpossible())
	fmt.Fprintf(g.w, "  correct VIPER-WB: PASS, %s\n", l2)

	detected := 0
	for seed := g.seed; seed < g.seed+8; seed++ {
		bugCfg, c := harness.BugHuntConfigs(viper.BugSet{NonAtomicRMW: true}, seed)
		bugCfg.WriteBackL2 = true
		if r := harness.NewGPURun(bugCfg, c, false, 0).Tester.Run(); !r.Passed() {
			detected++
		}
	}
	fmt.Fprintf(g.w, "  NonAtomicRMW injected into VIPER-WB: detected in %d/8 seeds\n", detected)
}

// runBug runs the §V case study's configuration (cmd/bughunt's) at seed.
func runBug(bugs viper.BugSet, seed uint64) *core.Report {
	sys, cfg := harness.BugHuntConfigs(bugs, seed)
	return harness.NewGPURun(sys, cfg, false, 0).Tester.Run()
}
