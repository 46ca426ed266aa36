// Package drftest is an autonomous data-race-free (DRF) random testing
// framework for GPU cache coherence protocols under relaxed memory
// models, reproducing Ta, Zhang, Gutierrez and Beckmann, "Autonomous
// Data-Race-Free GPU Testing" (IISWC 2019) as a self-contained Go
// library.
//
// The package bundles everything the paper's methodology needs:
//
//   - a deterministic discrete-event simulation kernel;
//   - the GPU VIPER write-through coherence protocol (per-CU L1s under
//     a shared L2) expressed as explicit transition tables;
//   - a MOESI-style CPU protocol and a shared CPU–GPU–DMA directory
//     for heterogeneous systems;
//   - the DRF GPU tester itself: wavefronts of lockstep threads issue
//     episodes (atomic-acquire, race-free loads/stores, atomic-release)
//     whose responses are checked autonomously against a reference
//     memory — value consistency, atomic uniqueness, forward progress;
//   - a Wood-style CPU random tester;
//   - 26 synthetic application workloads with configurable cache-line
//     reuse profiles, run through a detailed GPU-core pipeline model;
//   - transition-coverage instrumentation and the harness regenerating
//     every table and figure of the paper's evaluation.
//
// Quick start:
//
//	res := drftest.RunGPUTester(drftest.SmallCaches(), drftest.DefaultTesterConfig())
//	if !res.Report.Passed() {
//	    fmt.Println(res.Report.Failures[0].TableV())
//	}
//	fmt.Printf("L1 %.1f%%  L2 %.1f%%\n", 100*res.L1.Coverage(), 100*res.L2.Coverage())
package drftest

import (
	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/cputester"
	"drftest/internal/harness"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// Re-exported configuration and result types. The implementation lives
// under internal/; these aliases are the supported public surface.
type (
	// TesterConfig parameterizes a GPU tester run (Table III knobs).
	TesterConfig = core.Config
	// TesterReport is a finished GPU tester run.
	TesterReport = core.Report
	// Failure is one detected coherence bug with Table V context.
	Failure = core.Failure
	// SystemConfig describes a VIPER GPU memory system.
	SystemConfig = viper.Config
	// BugSet selects injected protocol bugs for case studies.
	BugSet = viper.BugSet
	// CoverageSummary is a controller's transition-coverage numbers.
	CoverageSummary = coverage.Summary
	// CoverageMatrix is a controller's transition hit matrix.
	CoverageMatrix = coverage.Matrix
	// CPUTesterConfig parameterizes a CPU tester run.
	CPUTesterConfig = cputester.Config
	// CPUTesterReport is a finished CPU tester run.
	CPUTesterReport = cputester.Report
)

// DefaultTesterConfig returns a moderate GPU tester configuration.
func DefaultTesterConfig() TesterConfig { return core.DefaultConfig() }

// DefaultCaches returns the application-run GPU system (16KB L1,
// 256KB L2, 8 CUs).
func DefaultCaches() SystemConfig { return viper.DefaultConfig() }

// SmallCaches returns the replacement-stressing tester system (256B
// L1, 1KB L2).
func SmallCaches() SystemConfig { return viper.SmallCacheConfig() }

// LargeCaches returns the hit-stressing tester system (256KB L1, 1MB
// L2).
func LargeCaches() SystemConfig { return viper.LargeCacheConfig() }

// MixedCaches returns the small-L1/large-L2 tester system.
func MixedCaches() SystemConfig { return viper.MixedCacheConfig() }

// Result is a completed GPU tester run with its coverage.
type Result struct {
	Report   *TesterReport
	L1, L2   CoverageSummary
	L1Matrix *CoverageMatrix
	L2Matrix *CoverageMatrix
}

// RunGPUTester builds a GPU-only VIPER system, runs the DRF tester on
// it, and returns the report with L1/L2 transition coverage.
func RunGPUTester(sysCfg SystemConfig, cfg TesterConfig) *Result {
	r := harness.RunGPUTest(harness.GPUTestConfig{Name: "run", SysCfg: sysCfg, TestCfg: cfg})
	return &Result{
		Report:   r.Report,
		L1:       r.L1Sum,
		L2:       r.L2Sum,
		L1Matrix: r.L1,
		L2Matrix: r.L2,
	}
}

// CPUResult is a completed CPU tester run with its coverage.
type CPUResult struct {
	Report    *CPUTesterReport
	CPUL1     CoverageSummary
	Directory *CoverageMatrix
}

// RunCPUTester builds a CPU-only system (MOESI caches over the shared
// directory) and runs the Wood-style CPU tester on it.
func RunCPUTester(numCPUs int, cfg CPUTesterConfig) *CPUResult {
	b := harness.BuildCPU(numCPUs, harness.DefaultCPUCache)
	t := cputester.New(b.K, b.Caches, cfg)
	rep := t.Run()
	return &CPUResult{
		Report:    rep,
		CPUL1:     b.Col.Matrix("CPU-L1").Summarize(nil),
		Directory: b.Col.Matrix("Directory"),
	}
}

// HeteroResult is a GPU tester run over the heterogeneous system's
// shared directory.
type HeteroResult struct {
	Report    *TesterReport
	Directory *CoverageMatrix
}

// RunGPUTesterHetero runs the GPU tester with the VIPER L2 sitting on
// the shared CPU–GPU system directory, collecting the directory-side
// coverage the paper's Fig. 10(c) combines with the CPU tester's.
func RunGPUTesterHetero(sysCfg SystemConfig, cfg TesterConfig) *HeteroResult {
	rep, dir := harness.RunGPUTesterOnDirectory(harness.GPUTestConfig{Name: "hetero", SysCfg: sysCfg, TestCfg: cfg})
	return &HeteroResult{Report: rep, Directory: dir}
}

// DefaultCPUTesterConfig returns a moderate CPU tester configuration.
func DefaultCPUTesterConfig() CPUTesterConfig { return cputester.DefaultConfig() }

// NewTester gives full control: build your own system (e.g. with
// injected bugs) and attach the tester to it.
//
//	k := drftest.NewKernel()
//	sysCfg := drftest.SmallCaches()
//	sysCfg.Bugs = drftest.BugSet{LostWriteRace: true}
//	sys, col := drftest.NewSystem(k, sysCfg)
//	rep := drftest.NewTester(k, sys, drftest.DefaultTesterConfig()).Run()
//	_ = col
func NewTester(k *sim.Kernel, sys *viper.System, cfg TesterConfig) *core.Tester {
	return core.New(k, sys, cfg)
}

// RunMultiGPUTester runs one DRF tester spanning numGPUs identical
// GPUs over a shared system directory (§III.B's multi-GPU topology).
// Inter-GPU writes and atomics probe-invalidate the other GPUs' L2
// copies, so even the L2 probe transitions — Impossible in single-GPU
// systems — become coverable.
func RunMultiGPUTester(numGPUs int, sysCfg SystemConfig, cfg TesterConfig) *Result {
	b := harness.BuildMultiGPU(sysCfg, numGPUs)
	t := core.NewMulti(b.K, b.GPUs, cfg)
	t.Start()
	b.K.RunUntilIdle()
	t.Finish()
	t.AuditStore(b.Store)
	l1 := b.Col.Matrix("GPU-L1")
	l2 := b.Col.Matrix("GPU-L2")
	rep := &core.Report{Failures: t.Failures()}
	return &Result{
		Report:   rep,
		L1:       l1.Summarize(nil),
		L2:       l2.Summarize(harness.TCCImpossibleMultiGPU()),
		L1Matrix: l1,
		L2Matrix: l2,
	}
}

// CellSet names transition-table cells, e.g. for Impossible masks.
type CellSet = coverage.CellSet

// L2ImpossibleGPUOnly returns the GPU L2 cells unreachable in a
// GPU-only system (probe-invalidations and atomic NACKs need a
// directory with other clients); pass it to CoverageMatrix.Summarize
// so coverage is reported over reachable transitions, as the paper
// does.
func L2ImpossibleGPUOnly() CellSet { return harness.TCCImpossibleGPUOnly() }

// NewKernel returns a fresh deterministic event kernel.
func NewKernel() *sim.Kernel { return sim.NewKernel() }

// NewSystem builds a GPU-only VIPER system with coverage collection.
func NewSystem(k *sim.Kernel, cfg SystemConfig) (*viper.System, *coverage.Collector) {
	col := coverage.NewCollector(viper.NewTCPSpec(), viper.NewTCCSpec(), viper.NewTCCWBSpec())
	return viper.NewSystem(k, cfg, col), col
}
