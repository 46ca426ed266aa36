package harness

import (
	"time"

	"drftest/internal/apps"
	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/cputester"
	"drftest/internal/directory"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// GPURunResult is one GPU tester run with its coverage.
type GPURunResult struct {
	Name   string
	Caches string
	Report *core.Report
	L1     *coverage.Matrix
	L2     *coverage.Matrix
	L1Sum  coverage.Summary
	L2Sum  coverage.Summary
}

// RunGPUTest executes one Table III tester configuration on a GPU-only
// system.
func RunGPUTest(cfg GPUTestConfig) *GPURunResult {
	b := BuildGPU(cfg.SysCfg)
	tester := core.New(b.K, b.Sys, cfg.TestCfg)
	rep := tester.Run()
	l1 := b.Col.Matrix("GPU-L1")
	l2 := b.Col.Matrix("GPU-L2")
	return &GPURunResult{
		Name:   cfg.Name,
		Caches: cfg.Caches,
		Report: rep,
		L1:     l1,
		L2:     l2,
		L1Sum:  l1.Summarize(nil),
		L2Sum:  l2.Summarize(TCCImpossibleGPUOnly()),
	}
}

// GPUSweepResult is the Fig. 8 dataset: per-run coverage plus the
// union across the whole sweep.
type GPUSweepResult struct {
	Runs        []*GPURunResult
	UnionL1     *coverage.Matrix
	UnionL2     *coverage.Matrix
	UnionL1Sum  coverage.Summary
	UnionL2Sum  coverage.Summary
	TotalEvents uint64
	TotalWall   time.Duration
	TotalOps    uint64
	Failures    int
}

// AppRunResult is one application run with its coverage.
type AppRunResult struct {
	Res   *apps.RunResult
	L1Sum coverage.Summary
	L2Sum coverage.Summary
	L1    *coverage.Matrix
	L2    *coverage.Matrix
	Dir   *coverage.Matrix
}

// AppSuiteResult is the Fig. 6/9 dataset plus the directory view of
// Fig. 10(a).
type AppSuiteResult struct {
	Runs        []*AppRunResult
	UnionL1     *coverage.Matrix
	UnionL2     *coverage.Matrix
	UnionDir    *coverage.Matrix
	UnionL1Sum  coverage.Summary
	UnionL2Sum  coverage.Summary
	UnionDirSum coverage.Summary
	TotalEvents uint64
	TotalWall   time.Duration
	Faults      int
}

// AppSuiteOptions shapes an application-suite run.
type AppSuiteOptions struct {
	Seed    uint64
	NumWFs  int
	Lanes   int
	NumCPUs int
	// Scale shortens each app's memory-op count (1 = Table IV length).
	Scale float64
	// MaxTicksPerApp bounds each run (0 = unbounded).
	MaxTicksPerApp sim.Tick
	// Profiles defaults to the full 26-app suite.
	Profiles []apps.Profile
	// Workers is the worker-pool size (≤ 0 → GOMAXPROCS). Results do
	// not depend on it.
	Workers int
}

func (o AppSuiteOptions) withDefaults() AppSuiteOptions {
	if o.NumWFs == 0 {
		o.NumWFs = 16
	}
	if o.Lanes == 0 {
		o.Lanes = 4
	}
	if o.NumCPUs == 0 {
		o.NumCPUs = 2
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Profiles == nil {
		o.Profiles = apps.Profiles
	}
	return o
}

// scaleProfile shortens a profile's per-lane op count by the suite's
// Scale factor, clamped to a useful minimum.
func scaleProfile(p apps.Profile, scale float64) apps.Profile {
	p.MemOpsPerLane = int(float64(p.MemOpsPerLane) * scale)
	if p.MemOpsPerLane < 10 {
		p.MemOpsPerLane = 10
	}
	return p
}

// RunAppSuite executes the application suite on the heterogeneous
// system (GPU over the shared directory, host CPU traffic, DMA staging
// — the paper's application-based testing setup) over a pool of
// opts.Workers workers. Each worker builds one system and resets it
// between applications; application i always runs from seed
// opts.Seed+i on a just-built-equivalent system, so the result is the
// same at every worker count.
func RunAppSuite(opts AppSuiteOptions) *AppSuiteResult {
	opts = opts.withDefaults()
	n := len(opts.Profiles)
	results := make([]*AppRunResult, n)
	builds := make([]*HeteroBuild, poolSize(n, opts.Workers))
	parallelDo(n, opts.Workers, func(w, i int) {
		b := builds[w]
		if b == nil {
			b = BuildHetero(viper.DefaultConfig(), opts.NumCPUs, DefaultCPUCache) // Table III application configuration
			builds[w] = b
		} else {
			b.Reset()
		}
		results[i] = runOneApp(b, scaleProfile(opts.Profiles[i], opts.Scale), opts, opts.Seed+uint64(i))
	})

	out := &AppSuiteResult{
		UnionL1:  coverage.NewMatrix(viper.NewTCPSpec()),
		UnionL2:  coverage.NewMatrix(viper.NewTCCSpec()),
		UnionDir: coverage.NewMatrix(directory.NewSpec()),
	}
	for _, r := range results {
		out.Runs = append(out.Runs, r)
		out.UnionL1.Merge(r.L1)
		out.UnionL2.Merge(r.L2)
		out.UnionDir.Merge(r.Dir)
		out.TotalEvents += r.Res.Events
		out.TotalWall += r.Res.WallTime
		out.Faults += r.Res.Faults
	}
	out.UnionL1Sum = out.UnionL1.Summarize(nil)
	out.UnionL2Sum = out.UnionL2.Summarize(TCCImpossibleHetero())
	out.UnionDirSum = out.UnionDir.Summarize(nil)
	return out
}

// runOneApp runs one application on b, a just-built or just-reset
// system, and clones its coverage out of b's collector before the next
// reset zeroes it.
func runOneApp(b *HeteroBuild, prof apps.Profile, opts AppSuiteOptions, seed uint64) *AppRunResult {
	res := runAppPhases(b, prof, opts, seed)
	l1 := b.Col.Matrix("GPU-L1").Clone()
	l2 := b.Col.Matrix("GPU-L2").Clone()
	return &AppRunResult{
		Res:   res,
		L1:    l1,
		L2:    l2,
		Dir:   b.Col.Matrix("Directory").Clone(),
		L1Sum: l1.Summarize(nil),
		L2Sum: l2.Summarize(TCCImpossibleHetero()),
	}
}

// runAppPhases runs one application on b in phases, as on real
// systems: DMA stages the input while the system is quiescent, the
// kernel runs with the host polling, then DMA copies the result out.
func runAppPhases(b *HeteroBuild, prof apps.Profile, opts AppSuiteOptions, seed uint64) *apps.RunResult {
	host := b.resetHost(seed^0x505, 400, prof.MemOpsPerLane/2)
	b.DMA.CopyIn(apps.SharedRegionBase, 32, 50, nil)
	b.K.RunUntilIdle()

	host.start()
	res := b.runner.Run(b.K, b.GPU, prof, seed, opts.NumWFs, opts.Lanes, opts.MaxTicksPerApp)
	host.stop()
	b.K.RunUntilIdle()

	// Results are copied out of the kernel's streamed output buffer.
	b.DMA.CopyOut(apps.StreamRegionBase, 32, 50, nil)
	b.K.RunUntilIdle()
	return res
}

// CPURunResult is one CPU tester run.
type CPURunResult struct {
	Name   string
	Report *cputester.Report
	CPUSum coverage.Summary
	Dir    *coverage.Matrix
	DirSum coverage.Summary
}

// CPUSweepResult is the Fig. 10(b) dataset.
type CPUSweepResult struct {
	Runs        []*CPURunResult
	UnionDir    *coverage.Matrix
	UnionDirSum coverage.Summary
	UnionCPU    *coverage.Matrix
	TotalWall   time.Duration
	Failures    int
}

// RunGPUTesterOnDirectory runs the GPU tester over the heterogeneous
// directory (no CPUs attached) to collect its directory coverage for
// Fig. 10(c).
func RunGPUTesterOnDirectory(cfg GPUTestConfig) (*core.Report, *coverage.Matrix) {
	b := BuildHetero(cfg.SysCfg, 0, DefaultCPUCache)
	tester := core.New(b.K, b.GPU, cfg.TestCfg)
	rep := tester.Run()
	if rep.Passed() {
		// Run's own audit was skipped (no local memory controller);
		// audit against the directory's backing store instead.
		tester.AuditStore(b.Store)
		rep.Failures = tester.Failures()
	}
	return rep, b.Col.Matrix("Directory")
}
