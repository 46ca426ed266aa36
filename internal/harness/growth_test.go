package harness

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"drftest/internal/apps"
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
// and 0.041, 1/256 of it a request slab's chunk per 256 memops.
// With the checker's spill arrays and episode records carved by the
// chunk too (TestStreamLiveWindowAllocs), a fresh run costs 0.0225;
// with one request per lane instead of the slab, 0.0186, and an added
// memop 0.0007.
func TestLargeStreamRunAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts include the race detector's")
	}
	const maxGrowth, maxFresh = 0.008, 0.026
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
		t.Errorf("a fresh run allocated %.4f objects per memop, want ≤ %.3f", fresh, maxFresh)
	}
}

// TestStreamLiveWindowAllocs pins what the online checker costs a fresh
// run at the benchmark's tester_large_stream shape: the objects a run
// with StreamCheck on allocates beyond the same run with it off. With
// an array per spill, a record per episode and free lists grown one
// append at a time, the checker's warm-up took 1 761–1 765 objects at
// 7 episodes per lane and 1 832–1 836 at 14. With spill arrays carved
// from a chunk per capacity, episode records carved 16 at a time and
// variable folds carved 256 at a time, it takes 140–153 at either
// length; the ceiling is the reading plus 15 %, and doubling the
// episodes may add at most 16.
func TestStreamLiveWindowAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts include the race detector's")
	}
	const maxFresh, maxGrowth = 170, 16
	checker := func(episodes int) int64 {
		on := largeStreamShape(episodes)
		off := on
		off.StreamCheck = false
		a, _ := freshRunAllocs(t, on)
		b, _ := freshRunAllocs(t, off)
		return int64(a) - int64(b)
	}
	c7, c14 := checker(7), checker(14)
	t.Logf("the checker allocated %d objects at 7 episodes per lane, %d at 14", c7, c14)
	if c7 > maxFresh {
		t.Errorf("the checker allocated %d objects in a fresh run, want ≤ %d", c7, maxFresh)
	}
	if c14-c7 > maxGrowth {
		t.Errorf("doubling the episodes added %d checker objects, want ≤ %d", c14-c7, maxGrowth)
	}
}

// medianAllocs runs f three times and returns the median objects and
// bytes one run allocates. The first run in a process also builds the
// shared specs and label tables, which the median leaves out.
func medianAllocs(f func()) (objects, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var objs, bs []uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objs = append(objs, after.Mallocs-before.Mallocs)
		bs = append(bs, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(objs)
	slices.Sort(bs)
	return objs[1], bs[1]
}

// TestDataPlaneAllocs pins what one run of the root package's
// BenchmarkSpeed_TesterPerMemOp and BenchmarkSpeed_AppPerMemOp
// allocates, build included, at their exact configs (the first Table
// III tester config and the MatMul application, both at scale 0.1,
// seed 1). Before messages moved onto pools and prebound links, the
// tester cost 4 764 objects and 3 290 365 B per run and MatMul 14 095
// objects. They read 1 300 objects and 1 485 352 B, and 1 031–1 037
// objects, now; each ceiling is the reading plus 15 %.
func TestDataPlaneAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts include the race detector's")
	}
	tester := GPUTesterConfigs(1, 0.1)[0]
	tObjs, tBytes := medianAllocs(func() {
		if r := RunGPUTest(tester); !r.Report.Passed() {
			t.Fatalf("tester failed: %v", r.Report.Failures[0])
		}
	})
	appObjs, _ := medianAllocs(func() {
		res := RunAppSuite(AppSuiteOptions{
			Seed: 1, Scale: 0.1, NumWFs: 8,
			Profiles: []apps.Profile{*apps.ByName("MatMul")},
		})
		if res.Faults != 0 {
			t.Fatal("protocol faults")
		}
	})
	t.Logf("tester %d objects, %d B per run; MatMul %d objects per run", tObjs, tBytes, appObjs)
	const maxTesterObjs, maxTesterBytes, maxAppObjs = 1495, 1_708_000, 1190
	if tObjs > maxTesterObjs {
		t.Errorf("tester run allocated %d objects, want ≤ %d", tObjs, maxTesterObjs)
	}
	if tBytes > maxTesterBytes {
		t.Errorf("tester run allocated %d B, want ≤ %d", tBytes, maxTesterBytes)
	}
	if appObjs > maxAppObjs {
		t.Errorf("MatMul run allocated %d objects, want ≤ %d", appObjs, maxAppObjs)
	}
}
