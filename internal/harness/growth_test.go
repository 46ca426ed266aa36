package harness

import (
	"runtime"
	"testing"

	"drftest/internal/core"
	"drftest/internal/viper"
)

// largeStreamShape is the benchmark's tester_large_stream run at
// episodes episodes per lane: large caches, the online checker on, 16
// wavefronts × 4 lanes × 200 actions over 10 sync and 8 192 data
// variables.
func largeStreamShape(episodes int) core.Config {
	c := core.DefaultConfig()
	c.Seed = 1
	c.NumWavefronts, c.ThreadsPerWF = 16, 4
	c.EpisodesPerThread, c.ActionsPerEpisode = episodes, 200
	c.NumSyncVars, c.NumDataVars = 10, 8192
	c.StreamCheck = true
	return c
}

// freshRunAllocs builds a large-cache system and a tester of cfg, then
// counts the objects the run alone allocates and the memops it
// completes.
func freshRunAllocs(t *testing.T, cfg core.Config) (objects, memops uint64) {
	t.Helper()
	b := BuildGPU(viper.LargeCacheConfig())
	tst := core.New(b.K, b.Sys, cfg)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep := tst.Run()
	runtime.ReadMemStats(&after)
	if !rep.Passed() || len(rep.StreamViolations) != 0 {
		t.Fatalf("run failed: %v %v", rep.Failures, rep.StreamViolations)
	}
	return after.Mallocs - before.Mallocs, rep.OpsCompleted
}

// TestLargeStreamRunAllocs pins that a tester run allocates for what it
// holds at its peak, not for everything it touched, at the shape of the
// benchmark's tester_large_stream workload (7 episodes per lane, 89 600
// memops). Doubling the episodes adds 89 600 memops. With a spill array
// per checker fold that ever overflowed, a line, payload and mask per
// line pool miss, a message per message pool miss and episode storage
// grown by append, each added memop cost 0.055 objects and a fresh run
// 0.224 per memop. With pools carved by the chunk, spill arrays
// recycled and each lane's episode storage sized once, they cost 0.005
// and 0.041; the request slab's 1/256 per memop is the growth left.
func TestLargeStreamRunAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts include the race detector's")
	}
	const maxGrowth, maxFresh = 0.008, 0.08
	a1, n1 := freshRunAllocs(t, largeStreamShape(7))
	a2, n2 := freshRunAllocs(t, largeStreamShape(14))
	growth := (float64(a2) - float64(a1)) / float64(n2-n1)
	fresh := float64(a1) / float64(n1)
	t.Logf("%d objects for %d memops, %d for %d: %.4f objects per memop fresh, %.4f per added memop",
		a1, n1, a2, n2, fresh, growth)
	if growth > maxGrowth {
		t.Errorf("doubling the episodes added %.4f objects per added memop, want ≤ %.3f", growth, maxGrowth)
	}
	if fresh > maxFresh {
		t.Errorf("a fresh run allocated %.4f objects per memop, want ≤ %.2f", fresh, maxFresh)
	}
}
