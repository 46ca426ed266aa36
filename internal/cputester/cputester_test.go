package cputester

import (
	"testing"

	"drftest/internal/cache"
	"drftest/internal/coverage"
	"drftest/internal/directory"
	"drftest/internal/mem"
	"drftest/internal/memctrl"
	"drftest/internal/moesi"
	"drftest/internal/sim"
)

// buildCPUSystem assembles numCPUs moesi caches over a directory and
// memory controller.
func buildCPUSystem(k *sim.Kernel, numCPUs int, cacheCfg cache.Config, col *coverage.Collector) ([]*moesi.Cache, *directory.Directory) {
	ctrl := memctrl.New(k, memctrl.DefaultConfig(), mem.NewStore(), nil)
	dir := directory.New(k, col, nil, ctrl, cacheCfg.LineSize)
	spec := moesi.NewCPUSpec()
	caches := make([]*moesi.Cache, numCPUs)
	for i := range caches {
		caches[i] = moesi.NewCache(k, spec, col, nil, cacheCfg, dir)
	}
	return caches, dir
}

func runCPUTester(t *testing.T, numCPUs int, cacheCfg cache.Config, cfg Config) (*Report, *coverage.Collector) {
	t.Helper()
	k := sim.NewKernel()
	col := coverage.NewCollector(moesi.NewCPUSpec(), directory.NewSpec())
	caches, _ := buildCPUSystem(k, numCPUs, cacheCfg, col)
	tester := New(k, caches, cfg)
	return tester.Run(), col
}

var smallCPUCache = cache.Config{SizeBytes: 512, LineSize: 64, Assoc: 2}

func TestCPUTesterPasses(t *testing.T) {
	for _, numCPUs := range []int{2, 4, 8} {
		cfg := DefaultConfig()
		cfg.OpsPerCPU = 1500
		cfg.NumLocations = 128
		rep, col := runCPUTester(t, numCPUs, smallCPUCache, cfg)
		for _, f := range rep.Failures {
			t.Fatalf("%d CPUs: unexpected failure: %s", numCPUs, f.Message)
		}
		if rep.OpsCompleted != rep.OpsIssued {
			t.Fatalf("%d CPUs: completed %d of %d", numCPUs, rep.OpsCompleted, rep.OpsIssued)
		}
		cpu := col.Matrix("CPU-L1").Summarize(nil)
		dir := col.Matrix("Directory").Summarize(nil)
		t.Logf("%d CPUs: ticks=%d  %s  |  %s", numCPUs, rep.SimTicks, cpu, dir)
	}
}

func TestCPUTesterDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.OpsPerCPU = 500
	rep1, _ := runCPUTester(t, 4, smallCPUCache, cfg)
	rep2, _ := runCPUTester(t, 4, smallCPUCache, cfg)
	if rep1.SimTicks != rep2.SimTicks || rep1.OpsIssued != rep2.OpsIssued {
		t.Fatalf("non-deterministic: ticks %d vs %d, ops %d vs %d",
			rep1.SimTicks, rep2.SimTicks, rep1.OpsIssued, rep2.OpsIssued)
	}
}

// TestCPUTesterProbesFire checks the tester actually provokes the
// coherence traffic it exists to provoke: probes, dirty write-backs,
// and O-state downgrades.
func TestCPUTesterProbesFire(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OpsPerCPU = 3000
	cfg.NumLocations = 256
	cfg.AddressRangeBytes = 16 * 1024 // span many sets so replacements fire
	cfg.StoreFraction = 0.6
	rep, col := runCPUTester(t, 8, smallCPUCache, cfg)
	if !rep.Passed() {
		t.Fatalf("failures: %v", rep.Failures[0])
	}
	m := col.Matrix("CPU-L1")
	for _, cell := range [][2]int{
		{moesi.StateM, moesi.EvPrbInv},
		{moesi.StateM, moesi.EvPrbShr},
		{moesi.StateO, moesi.EvPrbInv},
		{moesi.StateM, moesi.EvRepl},
		{moesi.StateS, moesi.EvStore},
	} {
		if m.Hits[cell[0]][cell[1]] == 0 {
			t.Errorf("expected CPU-L1 [%s,%s] to fire",
				moesi.States[cell[0]], moesi.Events[cell[1]])
		}
	}
	d := col.Matrix("Directory")
	for _, cell := range [][2]int{
		{directory.StateCS, directory.EvCPURdX},
		{directory.StateCM, directory.EvCPUVic},
		{directory.StateB, directory.EvPrbAckData},
		{directory.StateB, directory.EvPrbAckClean},
	} {
		if d.Hits[cell[0]][cell[1]] == 0 {
			t.Errorf("expected Directory [%s,%s] to fire",
				directory.States[cell[0]], directory.Events[cell[1]])
		}
	}
}

// TestCPUTesterDetectsDroppedProbeData injects a CPU-protocol bug —
// invalidation probes of dirty lines ack without the data — and
// checks the Wood-style SC value check catches the resulting stale
// reads.
func TestCPUTesterDetectsDroppedProbeData(t *testing.T) {
	detected := 0
	for seed := uint64(1); seed <= 6; seed++ {
		k := sim.NewKernel()
		caches, _ := buildCPUSystem(k, 4, smallCPUCache, nil)
		for _, c := range caches {
			c.Bugs.DropProbeData = true
		}
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.OpsPerCPU = 2000
		cfg.NumLocations = 32
		cfg.StoreFraction = 0.6
		tester := New(k, caches, cfg)
		if rep := tester.Run(); !rep.Passed() {
			detected++
			if rep.Failures[0].Deadlock {
				t.Errorf("seed %d: expected value mismatch, got deadlock", seed)
			}
		}
	}
	t.Logf("detected in %d/6 seeds", detected)
	if detected < 3 {
		t.Fatalf("CPU tester too weak: dropped-probe-data caught in only %d/6 seeds", detected)
	}
}
