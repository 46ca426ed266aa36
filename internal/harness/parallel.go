package harness

import (
	"runtime"
	"sync"
	"sync/atomic"

	"drftest/internal/coverage"
	"drftest/internal/cputester"
	"drftest/internal/directory"
	"drftest/internal/moesi"
	"drftest/internal/viper"
)

// Every run in a sweep owns an isolated kernel, RNG and coverage
// collector, so sweeps are embarrassingly parallel: results are
// bit-identical at every worker count (per-run determinism is
// per-run), only wall clock changes. Wall-time totals still sum the
// per-run times, so reported testing cost is unaffected by the worker
// count. The serial entry points (RunGPUSweep, RunAppSuite,
// RunCPUSweep) are these at one worker.

// RunGPUSweepParallel executes the tester sweep over a worker pool
// (workers ≤ 0 → GOMAXPROCS) and accumulates unions.
func RunGPUSweepParallel(cfgs []GPUTestConfig, workers int) *GPUSweepResult {
	results := make([]*GPURunResult, len(cfgs))
	parallelDo(len(cfgs), workers, func(i int) {
		results[i] = RunGPUTest(cfgs[i])
	})

	out := &GPUSweepResult{
		UnionL1: coverage.NewMatrix(viper.NewTCPSpec()),
		UnionL2: coverage.NewMatrix(viper.NewTCCSpec()),
	}
	for _, r := range results {
		out.Runs = append(out.Runs, r)
		out.UnionL1.Merge(r.L1)
		out.UnionL2.Merge(r.L2)
		out.TotalEvents += r.Report.EventsExecuted
		out.TotalWall += r.Report.WallTime
		out.TotalOps += r.Report.OpsIssued
		out.Failures += len(r.Report.Failures)
	}
	out.UnionL1Sum = out.UnionL1.Summarize(nil)
	out.UnionL2Sum = out.UnionL2.Summarize(TCCImpossibleGPUOnly())
	return out
}

// RunAppSuiteParallel executes the application suite over a worker pool.
func RunAppSuiteParallel(opts AppSuiteOptions, workers int) *AppSuiteResult {
	opts = opts.withDefaults()
	results := make([]*AppRunResult, len(opts.Profiles))
	parallelDo(len(opts.Profiles), workers, func(i int) {
		results[i] = runOneApp(scaleProfile(opts.Profiles[i], opts.Scale), opts, opts.Seed+uint64(i))
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

// RunCPUSweepParallel executes the CPU tester sweep over a worker pool.
func RunCPUSweepParallel(cfgs []CPUTestConfig, workers int) *CPUSweepResult {
	type cpuOut struct {
		r   *CPURunResult
		cpu *coverage.Matrix
	}
	results := make([]cpuOut, len(cfgs))
	parallelDo(len(cfgs), workers, func(i int) {
		b := BuildCPU(cfgs[i].NumCPUs, cfgs[i].CacheCfg)
		rep := cputester.New(b.K, b.Caches, cfgs[i].TestCfg).Run()
		// Materialize the CPU-L1 matrix once: it serves both the run's
		// summary and the sweep's union merge below.
		cpu := b.Col.Matrix("CPU-L1")
		r := &CPURunResult{Name: cfgs[i].Name, Report: rep, Dir: b.Col.Matrix("Directory")}
		r.CPUSum = cpu.Summarize(nil)
		r.DirSum = r.Dir.Summarize(nil)
		results[i] = cpuOut{r: r, cpu: cpu}
	})

	out := &CPUSweepResult{
		UnionDir: coverage.NewMatrix(directory.NewSpec()),
		UnionCPU: coverage.NewMatrix(moesi.NewCPUSpec()),
	}
	for _, res := range results {
		out.Runs = append(out.Runs, res.r)
		out.UnionDir.Merge(res.r.Dir)
		out.UnionCPU.Merge(res.cpu)
		out.TotalWall += res.r.Report.WallTime
		out.Failures += len(res.r.Report.Failures)
	}
	out.UnionDirSum = out.UnionDir.Summarize(nil)
	return out
}

func parallelDo(n, workers int, do func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// An atomic ticket dispenser replaces the old prefilled buffered
	// channel: O(1) memory instead of O(n) buffered indices, and a
	// worker claims its next index with one atomic add instead of a
	// channel receive.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}
