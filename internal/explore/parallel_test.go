package explore

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// parallelCase is one exploration TestParallelMatchesSerial splits.
type parallelCase struct {
	name string
	cfg  Config
}

// parallelCases are the differential test's seven configurations,
// pruned, and the reference explore_dpor program, whole and with a
// budget that binds in the middle of its tree.
func parallelCases() []parallelCase {
	var cases []parallelCase
	for _, c := range diffCases() {
		cases = append(cases, parallelCase{c.name, Config{SysCfg: c.sys, TestCfg: c.tc, Depth: 64, Budget: 100_000, Prune: true}})
	}
	ref := Config{SysCfg: exploreBigSetsSys(), TestCfg: exploreWideCfg(13), Depth: 32, Budget: 10_000_000, Prune: true}
	bound := ref
	bound.Budget = 1_000
	return append(cases, parallelCase{"explore_dpor", ref}, parallelCase{"explore_dpor-budget1000", bound})
}

// splitRun is one exploration of a parallel case with its terminal
// digests.
type splitRun struct {
	res      *Result
	artifact []byte
	digests  map[[32]byte]bool
}

// exploreSplit explores cfg on workers workers. With donateEvery > 0 it
// runs one worker and forces a donation after every donateEvery-th
// completed schedule, which the worker takes up itself once its own
// task is done: a deterministic split at many depths.
func exploreSplit(t *testing.T, cfg Config, workers, donateEvery int) splitRun {
	t.Helper()
	cfg.Workers = workers
	x := newExplorer(cfg)
	out := splitRun{digests: map[[32]byte]bool{}}
	var mu sync.Mutex
	var completed int
	x.onTerminal = func(r *run) {
		d := verdictDigest(r)
		mu.Lock()
		defer mu.Unlock()
		out.digests[d] = true
		if completed++; donateEvery > 0 && completed%donateEvery == 0 {
			x.hungry.Store(1)
		}
	}
	res, err := x.explore()
	if err != nil {
		t.Fatal(err)
	}
	tasks := 0
	for tk := x.root; tk != nil; tk = tk.next {
		tasks++
	}
	t.Logf("%d workers (donation every %d): %d tasks, %d cuts, %d restores, %d events replayed",
		workers, donateEvery, tasks, res.Cuts, res.Restores, res.ReplayedEvents)
	if donateEvery > 0 && tasks < 2 {
		t.Fatalf("forced donations split nothing")
	}
	if res.Artifact != nil {
		if out.artifact, err = res.Artifact.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	out.res = res
	return out
}

// exploration is a result without the fields that may depend on the
// worker count: host cost and the in-memory artifact (compared as
// bytes).
func exploration(r *Result) Result {
	c := *r
	c.Cuts, c.Restores, c.ReplayedEvents, c.NsPerCut, c.NsPerRestore = 0, 0, 0, 0, 0
	c.Artifact = nil
	return c
}

// TestParallelMatchesSerial: however the schedule tree is split, by
// real workers (2 and 4) or by forced donations on one worker, every
// Result field but the host-cost ones equals the serial explorer's, the
// violation (the least in serial order) and its artifact bytes are the
// serial one's, and a clean exploration reaches the same set of
// terminal states. On the budget-bound case the result is the serial
// explorer's too: the budget counts the first paths in serial order.
func TestParallelMatchesSerial(t *testing.T) {
	for _, c := range parallelCases() {
		t.Run(c.name, func(t *testing.T) {
			serial := exploreSplit(t, c.cfg, 1, 0)
			for _, split := range []struct{ workers, donateEvery int }{{1, 1}, {2, 0}, {4, 0}} {
				got := exploreSplit(t, c.cfg, split.workers, split.donateEvery)
				name := fmt.Sprintf("%d workers, donation every %d", split.workers, split.donateEvery)
				if a, b := exploration(got.res), exploration(serial.res); !reflect.DeepEqual(a, b) {
					t.Fatalf("%s:\n  got:    %+v\n  serial: %+v", name, a, b)
				}
				if !bytes.Equal(got.artifact, serial.artifact) {
					t.Fatalf("%s: the violation's artifact differs from the serial one's", name)
				}
				if serial.res.Complete() && !sameSet(got.digests, serial.digests) {
					t.Fatalf("%s: %d terminal states, serial %d, not the same set", name, len(got.digests), len(serial.digests))
				}
			}
		})
	}
}

// TestExploreLeavesNoGoroutine: explorations on two workers leave no
// goroutine behind — neither a worker of their own nor an online
// checker's. The explorer's runs are cut before their first event, so
// their checkers fold on the caller from the start; a violation's
// checked replay folds through its ring and retires the worker at
// Finish. GOMAXPROCS is at least 2 so the checkers get rings even on
// one CPU.
func TestExploreLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	before := runtime.NumGoroutine()
	for _, c := range parallelCases() {
		if c.name != "clean-wt" && c.name != "lostwrite" {
			continue
		}
		cfg := c.cfg
		cfg.Workers = 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Violation != nil) != (c.name == "lostwrite") {
			t.Fatalf("%s: violation %+v", c.name, res.Violation)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the explorations, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
