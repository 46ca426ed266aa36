package harness

import (
	"fmt"
	"runtime"
	"testing"

	"drftest/internal/mem"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// poisonClient stands between a sequencer and the tester: it hands each
// response on, then scribbles over every field of the answered request.
// The memory system holds a request only from Sequencer.Issue until its
// response is delivered, and a tester lane issues all its ops from one
// request, so a run through poisonClient must be byte-identical to one
// without it. A layer that read a request after answering it — the
// write-through ack reading the store's thread, say — would read
// garbage: a thread ID of -1, an address no variable has, a zero issue
// tick the deadlock checker reports.
type poisonClient struct{ inner mem.Requestor }

func (p poisonClient) HandleResponse(resp *mem.Response) {
	req := resp.Req
	p.inner.HandleResponse(resp)
	*req = mem.Request{
		ID: 0xdead_beef_dead_beef, Op: mem.Op(0xa5), Addr: 0xa5a5_a5a4,
		Data: 0xa5a5_a5a5, Operand: 0xa5a5_a5a5, Acquire: true, Release: true,
		ThreadID: -1, WFID: -1, EpisodeID: 0xdead_beef, CUID: -1,
	}
}

// poisonRequests routes every response of r through a poisonClient.
func poisonRequests(r *GPURun) {
	for _, s := range r.Sys.Seqs {
		s.SetClient(poisonClient{r.Tester})
	}
}

// TestRequestLifetime pins the request lifetime the tester's per-lane
// request rests on: poisoning each request as soon as its response is
// handled changes no report and no coverage cell — over a write-through
// run heavy in stores (every plain store is answered at L1 acceptance,
// long before its write-through is acked), a write-back L2 run, a
// warm-fork campaign, and a cut and rewind at
// TestCheckpointRestoreBitIdentical's shape.
func TestRequestLifetime(t *testing.T) {
	for _, row := range []struct {
		name   string
		wb     bool
		jitter sim.Tick
		bugs   viper.BugSet
	}{
		{"writethrough", false, 0, viper.BugSet{}},
		{"writethrough-jitter", false, 12, viper.BugSet{}},
		{"writeback", true, 0, viper.BugSet{}},
		// The write-back L2's non-atomic fast path writes its sum a
		// window after answering the atomic.
		{"writeback-nonatomic", true, 0, viper.BugSet{NonAtomicRMW: true}},
	} {
		t.Run(row.name, func(t *testing.T) {
			sys := viper.SmallCacheConfig()
			sys.WriteBackL2, sys.NumL2Slices = row.wb, 2
			sys.RespJitter, sys.JitterSeed = row.jitter, 5
			sys.Bugs = row.bugs
			cfg := campaignTestCfg()
			cfg.Seed, cfg.StoreFraction = 3, 0.9
			_, l2Name, _ := CampaignSpecs(sys)

			ref := NewGPURun(sys, cfg)
			want := ref.Tester.Run()
			r := NewGPURun(sys, cfg)
			poisonRequests(r)
			got := r.Tester.Run()
			if g, w := reportJSON(t, got), reportJSON(t, want); g != w {
				t.Fatalf("poisoned run diverged\nwant: %s\ngot:  %s", w, g)
			}
			requireMatrixEqual(t, "GPU-L1", ref.Col.Matrix("GPU-L1"), r.Col.Matrix("GPU-L1"))
			requireMatrixEqual(t, l2Name, ref.Col.Matrix(l2Name), r.Col.Matrix(l2Name))
		})
	}

	t.Run("fork-campaign", func(t *testing.T) {
		sys := viper.SmallCacheConfig()
		sys.Bugs.StaleAcquire = true // failures to compare
		cfg := CampaignConfig{SysCfg: sys, TestCfg: campaignTestCfg(), Workers: 1, Fork: true}
		c := NewCornerCache(cfg.TestCfg, cfg.SysCfg).Corner(CornerLevels{})
		ref, poisoned := NewRunContext(cfg), NewRunContext(cfg)
		// The first seed builds each context and takes its warm snapshot;
		// every later one forks from it.
		ref.RunSeed(100, c)
		poisoned.RunSeed(100, c)
		poisonRequests(poisoned.run)
		ref.ClearDelta()
		poisoned.ClearDelta()
		for seed := uint64(101); seed < 109; seed++ {
			ref.RunSeed(seed, c)
			poisoned.RunSeed(seed, c)
		}
		want, got := ref.Delta(), poisoned.Delta()
		if len(want.Failures) == 0 {
			t.Fatal("no seed failed: nothing to compare")
		}
		if got.Seeds != want.Seeds || got.Ops != want.Ops || got.Events != want.Events {
			t.Fatalf("poisoned campaign ran %d seeds, %d ops, %d events; want %d, %d, %d",
				got.Seeds, got.Ops, got.Events, want.Seeds, want.Ops, want.Events)
		}
		requireFailuresEqual(t, want.Failures, got.Failures)
		requireMatrixEqual(t, "GPU-L1", want.L1, got.L1)
		requireMatrixEqual(t, "GPU-L2", want.L2, got.L2)
	})

	base := failingGPURun(t)
	for _, wb := range []bool{false, true} {
		sys, cfg := base.GPU.SysCfg, base.GPU.TestCfg
		if wb {
			sys.Bugs = viper.BugSet{} // LostWriteRace is a write-through bug
			sys.WriteBackL2, cfg.NumDataVars = true, 256
		}
		t.Run(fmt.Sprintf("cut-rewind,wb=%v", wb), func(t *testing.T) {
			checkpointRestore(t, sys, cfg, poisonRequests)
		})
	}
}

// TestTesterBytesPerMemop pins what a tester run allocates per memop at
// the benchmark's tester_small shape, in bytes, where each memop once
// took an 80-byte request from a slab written once and dropped: going
// from 6 to 12 episodes per lane added 81.7 bytes per added memop. With
// one request per lane it adds ≈ 1.8.
func TestTesterBytesPerMemop(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts include the race detector's")
	}
	const maxGrowth = 4.0
	run := func(episodes int) (bytes, memops uint64) {
		cfg := largeStreamShape(episodes)
		cfg.StreamCheck = false
		r := NewGPURun(viper.SmallCacheConfig(), cfg)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep := r.Tester.Run()
		runtime.ReadMemStats(&after)
		if !rep.Passed() {
			t.Fatalf("run failed: %v", rep.Failures)
		}
		return after.TotalAlloc - before.TotalAlloc, rep.OpsCompleted
	}
	b1, n1 := run(6)
	b2, n2 := run(12)
	growth := (float64(b2) - float64(b1)) / float64(n2-n1)
	t.Logf("%d bytes for %d memops, %d for %d: %.1f bytes per added memop", b1, n1, b2, n2, growth)
	if growth > maxGrowth {
		t.Errorf("doubling the episodes added %.1f bytes per added memop, want ≤ %.0f", growth, maxGrowth)
	}
}
