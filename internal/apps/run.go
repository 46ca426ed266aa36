package apps

import (
	"time"

	"drftest/internal/gpucore"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// RunResult summarizes one application run.
type RunResult struct {
	App            string
	Suite          string
	SimTicks       uint64
	Events         uint64 // kernel events executed — the simulation-work measure
	Instructions   uint64
	MemOps         uint64
	WallTime       time.Duration
	Locality       [4]float64 // access-weighted, indexed by LocalityClass
	LocalityByLine [4]float64
	LinesTouched   int
	Faults         int
	Completed      bool
}

// Run executes prof on sys with numWFs wavefronts of `lanes` threads,
// using the detailed gpucore pipeline. maxTicks bounds runaway runs
// (0 = unbounded). It is Runner.Run on a fresh runner.
func Run(k *sim.Kernel, sys *viper.System, prof Profile, seed uint64, numWFs, lanes int, maxTicks sim.Tick) *RunResult {
	return new(Runner).Run(k, sys, prof, seed, numWFs, lanes, maxTicks)
}

// Runner runs applications one after another and keeps what a run
// builds — the gpucore cores with their wavefront contexts, the
// workload's programs, request arrays and RNG streams, and the
// locality tracker's table — for the next run to reset and reuse. A
// run on a reused runner equals one on a fresh runner. The zero value
// is ready to use.
type Runner struct {
	k       *sim.Kernel
	sys     *viper.System
	cores   []*gpucore.Core
	w       Workload
	wfsLeft int
}

// Run executes prof as the package-level Run does. The kernel must be
// idle or reset: a run stopped early leaves its events behind.
func (r *Runner) Run(k *sim.Kernel, sys *viper.System, prof Profile, seed uint64, numWFs, lanes int, maxTicks sim.Tick) *RunResult {
	r.w.reset(prof, seed, sys.Cfg.L1.LineSize, lanes, numWFs)
	r.wfsLeft = numWFs
	if r.k != k || r.sys != sys {
		r.k, r.sys = k, sys
		wfDone := func() { r.wfsLeft-- }
		r.cores = make([]*gpucore.Core, len(sys.Seqs))
		for cu := range r.cores {
			r.cores[cu] = gpucore.New(k, gpucore.DefaultConfig(), sys.Seqs[cu], wfDone)
		}
	} else {
		for _, c := range r.cores {
			c.Reset()
		}
	}
	for wf := 0; wf < numWFs; wf++ {
		r.cores[wf%len(r.cores)].AddWavefront(r.w.Program(wf))
	}

	startEvents := k.Executed()
	start := time.Now()
	for _, c := range r.cores {
		c.Start()
	}
	if maxTicks == 0 {
		k.RunUntilIdle()
	} else {
		k.Run(k.Now() + maxTicks)
	}
	wall := time.Since(start)

	var instr, memOps uint64
	for _, c := range r.cores {
		i, m, _ := c.Stats()
		instr += i
		memOps += m
	}
	tr := r.w.Tracker()
	return &RunResult{
		App:            prof.Name,
		Suite:          prof.Suite,
		SimTicks:       uint64(k.Now()),
		Events:         k.Executed() - startEvents,
		Instructions:   instr,
		MemOps:         memOps,
		WallTime:       wall,
		Locality:       tr.BreakdownByAccess(),
		LocalityByLine: tr.Breakdown(),
		LinesTouched:   tr.Lines(),
		Faults:         len(sys.Faults()),
		Completed:      r.wfsLeft == 0,
	}
}
