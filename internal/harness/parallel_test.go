package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"drftest/internal/apps"
	"drftest/internal/moesi"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// runWithTimeout fails the test if fn does not return promptly — the
// regression mode for parallelDo is a deadlock, not a wrong answer.
func runWithTimeout(t *testing.T, name string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not complete (deadlock)", name)
	}
}

func TestParallelDoZeroItems(t *testing.T) {
	runWithTimeout(t, "parallelDo(0, …)", func() {
		parallelDo(0, 4, func(_, i int) {
			t.Errorf("do called with i=%d for n=0", i)
		})
	})
}

func TestParallelDoMoreWorkersThanItems(t *testing.T) {
	runWithTimeout(t, "parallelDo(3, 16, …)", func() {
		var mu sync.Mutex
		seen := make(map[int]int)
		parallelDo(3, 16, func(w, i int) {
			if w >= 3 {
				t.Errorf("job %d ran on worker %d of a pool of 3", i, w)
			}
			mu.Lock()
			seen[i]++
			mu.Unlock()
		})
		if len(seen) != 3 {
			t.Fatalf("visited %d indices, want 3", len(seen))
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d visited %d times", i, c)
			}
		}
	})
}

func TestParallelDoDefaultWorkers(t *testing.T) {
	runWithTimeout(t, "parallelDo(8, 0, …)", func() {
		var mu sync.Mutex
		n := 0
		parallelDo(8, 0, func(int, int) {
			mu.Lock()
			n++
			mu.Unlock()
		})
		if n != 8 {
			t.Fatalf("did %d items, want 8", n)
		}
	})
}

// TestParallelSweepMatchesSerial: the parallel runner must produce
// exactly the serial sweep's coverage (per-run determinism is per-run;
// only wall clock changes).
func TestParallelSweepMatchesSerial(t *testing.T) {
	cfgs := GPUTesterConfigs(5, 0.05)[:6]
	serial := RunGPUSweep(cfgs, 1)
	par := RunGPUSweep(cfgs, 4)
	if serial.Failures != 0 || par.Failures != 0 {
		t.Fatal("unexpected failures")
	}
	if serial.TotalEvents != par.TotalEvents || serial.TotalOps != par.TotalOps {
		t.Fatalf("parallel diverged: events %d vs %d, ops %d vs %d",
			serial.TotalEvents, par.TotalEvents, serial.TotalOps, par.TotalOps)
	}
	for i := range serial.UnionL1.Hits {
		for j := range serial.UnionL1.Hits[i] {
			if serial.UnionL1.Hits[i][j] != par.UnionL1.Hits[i][j] {
				t.Fatalf("L1 union cell (%d,%d) differs", i, j)
			}
		}
	}
	for i := range serial.UnionL2.Hits {
		for j := range serial.UnionL2.Hits[i] {
			if serial.UnionL2.Hits[i][j] != par.UnionL2.Hits[i][j] {
				t.Fatalf("L2 union cell (%d,%d) differs", i, j)
			}
		}
	}
}

// TestAppSuiteReuseMatchesFresh is the oracle for HeteroBuild.Reset:
// each application RunAppSuite runs on a worker's reused system must
// equal the same application (same profile, same seed) on a fresh
// BuildHetero — the same apps.RunResult bar wall time, and the same
// L1, L2 and directory matrices. Forward and reversed profile orders
// give every application a different predecessor; worker counts 1, 2
// and 3 and two seeds vary which system runs what after what. Last, one
// application is stopped mid-run, so Reset faces live TBEs, stall
// queues, queued responses and a CPU request in flight rather than an
// idle system, and the recycled application state — cores with live
// wavefronts, programs mid-stream, a filled locality tracker and the
// host driver mid-op — is left for the next application to reset; that
// application must match a fresh build field for field, locality
// breakdowns included, and leave every layer's counters as a fresh
// build does.
func TestAppSuiteReuseMatchesFresh(t *testing.T) {
	profs := []apps.Profile{*apps.ByName("Square"), *apps.ByName("CM"), *apps.ByName("FFT"), *apps.ByName("Histogram")}
	reversed := slices.Clone(profs)
	slices.Reverse(reversed)
	for _, seed := range []uint64{3, 11} {
		for _, order := range [][]apps.Profile{profs, reversed} {
			opts := AppSuiteOptions{Seed: seed, Scale: 0.05, NumWFs: 4, Profiles: order}.withDefaults()
			fresh := make([]*AppRunResult, len(order))
			for i := range order {
				fresh[i] = freshApp(opts, order[i], opts.Seed+uint64(i))
			}
			for _, workers := range []int{1, 2, 3} {
				opts.Workers = workers
				res := RunAppSuite(opts)
				for i, r := range res.Runs {
					requireAppRunEqual(t, fmt.Sprintf("seed %d, workers %d, %s after %d apps", seed, workers, order[i].Name, i), fresh[i], r)
				}
			}
		}
	}

	opts := AppSuiteOptions{Seed: 3, Scale: 0.05, NumWFs: 4}.withDefaults()
	b := BuildHetero(viper.DefaultConfig(), opts.NumCPUs, DefaultCPUCache)
	stopMidRun(t, b, scaleProfile(profs[2], opts.Scale), opts)
	b.Reset()
	fb := BuildHetero(viper.DefaultConfig(), opts.NumCPUs, DefaultCPUCache)
	next := scaleProfile(profs[1], opts.Scale)
	requireAppRunEqual(t, "CM after a stopped FFT", runOneApp(fb, next, opts, 7), runOneApp(b, next, opts, 7))
	if want, got := layerStats(fb), layerStats(b); !slices.Equal(want, got) {
		t.Fatalf("CM after a stopped FFT: layer stats diverged\nfresh:  %v\nreused: %v", want, got)
	}
}

// TestAppSuiteAllocs pins what the application suite costs the
// allocator: at Scale 0.05 on one worker, at most 0.14 objects per
// memory op (about 3 080 for 23 488 ops, 0.131; 0.77 while the CPU side
// sent closures and every application rebuilt its cores, programs,
// tracker and host driver). What remains is one BuildHetero and its
// pools' warm-up, and each application's coverage clones. The first
// suite in a process also builds the shared specs and label tables, so
// the pin takes the median of three. The race detector's own
// allocations are out of scope.
func TestAppSuiteAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts include the race detector's")
	}
	opts := AppSuiteOptions{Seed: 1, Scale: 0.05, Workers: 1}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var perOp []float64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := RunAppSuite(opts)
		runtime.ReadMemStats(&after)
		var memOps uint64
		for _, r := range res.Runs {
			memOps += r.Res.MemOps
		}
		perOp = append(perOp, float64(after.Mallocs-before.Mallocs)/float64(memOps))
	}
	slices.Sort(perOp)
	t.Logf("objects per memory op %.3f", perOp)
	if perOp[1] > 0.14 {
		t.Fatalf("median %.3f objects per memory op, want at most 0.14", perOp[1])
	}
}

// freshApp runs one application on a fresh system: the oracle for a
// reused one.
func freshApp(opts AppSuiteOptions, prof apps.Profile, seed uint64) *AppRunResult {
	return runOneApp(BuildHetero(viper.DefaultConfig(), opts.NumCPUs, DefaultCPUCache), scaleProfile(prof, opts.Scale), opts, seed)
}

// layerStats gathers the counters of the heterogeneous layers that no
// run result carries: directory, DMA engine, CPU caches and memory
// controller.
func layerStats(b *HeteroBuild) []uint64 {
	nacks, probes, staleVics := b.Dir.Stats()
	dmaReads, dmaWrites := b.DMA.Stats()
	reads, writes, atomics, peak := b.Dir.Memory().Stats()
	out := []uint64{nacks, probes, staleVics, dmaReads, dmaWrites, uint64(b.DMA.Inflight()), reads, writes, atomics, uint64(peak)}
	for _, c := range b.Caches {
		loads, loadHits, stores, storeHits, wbs := c.Stats()
		out = append(out, loads, loadHits, stores, storeHits, wbs, uint64(c.OutstandingCount()))
	}
	return out
}

// stopMidRun runs prof on b with the kernel stopped at the first tick
// (from half the full run's length, in steps) that cuts the run while
// the directory holds a live TBE, a stall queue and a queued response,
// a CPU cache has a host thread's request in flight, and the
// application is mid-run — wavefronts left, memory ops issued, lines
// tracked — resetting b between attempts. The stop comes from a poller,
// which, unlike an event, does not keep the kernel busy through the DMA
// phases.
func stopMidRun(t *testing.T, b *HeteroBuild, prof apps.Profile, opts AppSuiteOptions) {
	t.Helper()
	full := runAppPhases(b, prof, opts, 5).SimTicks
	for at := sim.Tick(full / 2); at < sim.Tick(full); at += 97 {
		b.Reset()
		b.K.AddPoller(1, func() {
			if b.K.Now() >= at {
				b.K.Stop()
			}
		})
		res := runAppPhases(b, prof, opts, 5)
		dump := b.Dir.DebugDump()
		cpuBusy := slices.ContainsFunc(b.Caches, func(c *moesi.Cache) bool { return c.OutstandingCount() > 0 })
		hostBusy := slices.ContainsFunc(b.host.threads, func(th hostThread) bool { return th.pending })
		appBusy := !res.Completed && res.MemOps > 0 && res.LinesTouched > 0
		if cpuBusy && hostBusy && appBusy && strings.Contains(dump, "TBE ") && strings.Contains(dump, "stalled ") && strings.Contains(dump, "responses ") {
			return
		}
	}
	t.Fatalf("no stop tick in [%d, %d) left a live TBE, a stall queue, a queued response, a host request in flight and the application mid-run", full/2, full)
}

// requireAppRunEqual fails unless two runs of one application agree on
// everything but host time.
func requireAppRunEqual(t *testing.T, name string, want, got *AppRunResult) {
	t.Helper()
	w, g := *want.Res, *got.Res
	w.WallTime, g.WallTime = 0, 0
	if !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: run result diverged\nfresh:  %+v\nreused: %+v", name, w, g)
	}
	requireMatrixEqual(t, name+" GPU-L1", want.L1, got.L1)
	requireMatrixEqual(t, name+" GPU-L2", want.L2, got.L2)
	requireMatrixEqual(t, name+" Directory", want.Dir, got.Dir)
}

func TestParallelCPUSweepMatchesSerial(t *testing.T) {
	cfgs := CPUTesterConfigs(9, 0.01)[:4]
	serial := RunCPUSweep(cfgs, 1)
	par := RunCPUSweep(cfgs, 4)
	if serial.Failures != 0 || par.Failures != 0 {
		t.Fatal("unexpected failures")
	}
	if serial.UnionDirSum.Active != par.UnionDirSum.Active {
		t.Fatalf("CPU sweep unions differ: %d vs %d", serial.UnionDirSum.Active, par.UnionDirSum.Active)
	}
}
