// Command cputester runs the Wood-style sequentially-consistent CPU
// random tester against the MOESI caches and the shared system
// directory (§IV.C's CPU-side complement to the GPU tester).
//
// Usage:
//
//	cputester [-cpus 4] [-caches small|large] [-ops 10000]
//	          [-locations 512] [-seed 1] [-grid]
//	          [-artifact-dir DIR] [-trace-depth 4096]
//
// With -artifact-dir set, any checker failure serializes a replay
// artifact (JSON) into the directory for `replay` to re-execute. The
// run itself is untraced: the artifact is a checked replay of it, whose
// re-run records the -trace-depth trace.
package main

import (
	"flag"
	"fmt"
	"os"

	"drftest/internal/cputester"
	"drftest/internal/harness"
)

func main() {
	cpus := flag.Int("cpus", 4, "number of CPU cores (2/4/8 in Table III)")
	caches := flag.String("caches", "small", "corepair cache size: small|large")
	ops := flag.Int("ops", 10_000, "operations per CPU (test length)")
	locations := flag.Int("locations", 512, "number of shared word locations")
	seed := flag.Uint64("seed", 1, "random seed")
	grid := flag.Bool("grid", false, "print directory classification grid")
	artifactDir := flag.String("artifact-dir", "", "write a failure-replay artifact (JSON) into this directory on any detected bug")
	traceDepth := flag.Int("trace-depth", harness.DefaultTraceCapacity, "execution-trace ring capacity used with -artifact-dir")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (pprof) to this file at exit")
	flag.Parse()

	stopProf, err := harness.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	cacheCfg := harness.DefaultCPUCache
	if *caches == "large" {
		cacheCfg = harness.LargeCPUCache
	}
	cfg := cputester.DefaultConfig()
	cfg.Seed = *seed
	cfg.OpsPerCPU = *ops
	cfg.NumLocations = *locations
	depth := 0
	if *artifactDir != "" {
		depth = *traceDepth
	}
	if err := harness.ValidateCPURun(*cpus, cacheCfg, cfg, depth); err != nil {
		fmt.Fprintf(os.Stderr, "cputester: %v\n", err)
		stopProf()
		os.Exit(2)
	}

	b := harness.BuildCPU(*cpus, cacheCfg)
	tester := cputester.New(b.K, b.Caches, cfg)
	rep := tester.Run()

	artifactPath := ""
	if *artifactDir != "" && !rep.Passed() {
		setup := harness.CPUSetup{NumCPUs: *cpus, CacheCfg: cacheCfg, TestCfg: cfg}
		untraced := harness.NewCPUArtifact(setup, tester, rep, b.K.Executed(), nil)
		untraced.TraceCapacity = *traceDepth
		art, err := harness.Replay(untraced)
		if err == nil {
			artifactPath, err = art.Write(*artifactDir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "cputester: no replay artifact: %v\n", err)
		}
	}

	fmt.Printf("cputester: seed=%d cpus=%d caches=%s ops/cpu=%d\n", *seed, *cpus, *caches, *ops)
	fmt.Printf("  ops completed  %d / %d\n", rep.OpsCompleted, rep.OpsIssued)
	fmt.Printf("  sim ticks      %d, wall %s\n", rep.SimTicks, rep.WallTime)
	fmt.Printf("  %s\n", b.Col.Matrix("CPU-L1").Summarize(nil))
	fmt.Printf("  %s\n", b.Col.Matrix("Directory").Summarize(nil))
	if *grid {
		b.Col.Matrix("Directory").RenderClassGrid(os.Stdout, nil)
	}

	if !rep.Passed() {
		fmt.Printf("\nFAIL: %d bug(s) detected\n", len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Println(" ", f.Message)
		}
		if artifactPath != "" {
			fmt.Printf("replay artifact written to %s (re-run with: replay %s)\n", artifactPath, artifactPath)
		}
		stopProf()
		os.Exit(1)
	}
	fmt.Println("PASS: no coherence violations detected")
}
