package harness

import (
	"runtime"
	"testing"

	"drftest/internal/core"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// This file is the end-to-end guard on the off-critical-path checker
// pipeline: moving StreamCheck folding into its own goroutine must be
// invisible in every observable — reports, artifacts, campaign
// outcomes — across checker modes, worker counts, and the fork/reset
// context strategies. Run with -race these tests also vet the
// pipeline's SPSC handoff under the real simulation workload.

// streamModeRun executes one fixed-seed run under cfg on a fresh
// system and returns its report.
func streamModeRun(t *testing.T, sysCfg viper.Config, cfg core.Config) *core.Report {
	t.Helper()
	b := BuildGPU(sysCfg)
	return core.New(b.K, b.Sys, cfg).Run()
}

// withProcs runs f at GOMAXPROCS n, restoring the setting afterwards.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestStreamCheckerModeByteIdentical pins the fixed-seed report across
// the three checker modes: StreamCheck off, folding inline on the
// simulation thread (GOMAXPROCS 1), and folding off-thread through the
// stream's ring (GOMAXPROCS at least 2, so a single-CPU runner
// exercises the ring too).
// The two checking modes must agree byte-for-byte (violations
// included), and neither may perturb the simulation relative to
// checking off.
func TestStreamCheckerModeByteIdentical(t *testing.T) {
	cases := []struct {
		name   string
		sysCfg func() viper.Config
	}{
		{"clean", viper.SmallCacheConfig},
		{"stale-acquire-bug", func() viper.Config {
			c := viper.SmallCacheConfig()
			c.Bugs.StaleAcquire = true
			return c
		}},
		{"lostwrite-bug", func() viper.Config {
			c := viper.SmallCacheConfig()
			c.Bugs.LostWriteRace = true
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := campaignTestCfg()
			base.Seed = 7

			off := base
			on := base
			on.StreamCheck = true

			repOff := streamModeRun(t, tc.sysCfg(), off)
			var repInline, repThreaded *core.Report
			withProcs(1, func() { repInline = streamModeRun(t, tc.sysCfg(), on) })
			withProcs(max(2, runtime.GOMAXPROCS(0)), func() { repThreaded = streamModeRun(t, tc.sysCfg(), on) })

			if got, want := reportJSON(t, repThreaded), reportJSON(t, repInline); got != want {
				t.Fatalf("off-thread checker report differs from inline\ninline:    %s\noff-thread: %s", want, got)
			}
			// Against StreamCheck off, compare everything but the
			// checker's own findings: online checking must not change
			// what the simulation did.
			noViol := *repInline
			noViol.StreamViolations = nil
			if got, want := reportJSON(t, &noViol), reportJSON(t, repOff); got != want {
				t.Fatalf("online checking perturbed the simulation\noff: %s\non:  %s", want, got)
			}
		})
	}
}

// TestStreamCheckCampaignForkAndWorkers pins campaign-level
// determinism with online checking enabled: the same swarm campaign
// on the reset path and the warm-fork fast path, at 1, 3 and 8
// workers, must produce identical seeds, failures and union coverage.
// Before the checker gained Snapshot/Restore and the pipeline, fork
// and StreamCheck could not be combined at all — this is the guard on
// that composition.
func TestStreamCheckCampaignForkAndWorkers(t *testing.T) {
	sysCfg := viper.SmallCacheConfig()
	sysCfg.Bugs.StaleAcquire = true // non-empty failure set to compare
	tc := campaignTestCfg()
	tc.StreamCheck = true
	base := CampaignConfig{
		SysCfg:    sysCfg,
		TestCfg:   tc,
		BaseSeed:  100,
		Workers:   3,
		BatchSize: 8,
		MaxSeeds:  32,
		Mode:      CampaignSwarm,
	}
	ref := RunGPUCampaign(base)
	if ref.SeedsRun == 0 {
		t.Fatal("campaign ran no seeds")
	}
	if len(ref.Failures) == 0 {
		t.Fatal("bug-injected campaign detected no failures")
	}
	for _, v := range []struct {
		fork    bool
		workers int
	}{
		{false, 1}, {false, 8},
		{true, 1}, {true, 3}, {true, 8},
	} {
		got := RunGPUCampaign(CampaignConfig{
			SysCfg:    base.SysCfg,
			TestCfg:   base.TestCfg,
			BaseSeed:  base.BaseSeed,
			Workers:   v.workers,
			BatchSize: base.BatchSize,
			MaxSeeds:  base.MaxSeeds,
			Mode:      base.Mode,
			Fork:      v.fork,
		})
		name := map[bool]string{false: "reset", true: "fork"}[v.fork]
		if got.SeedsRun != ref.SeedsRun {
			t.Fatalf("%s workers=%d: ran %d seeds, reference ran %d", name, v.workers, got.SeedsRun, ref.SeedsRun)
		}
		requireMatrixEqual(t, "GPU-L1 union", ref.UnionL1, got.UnionL1)
		requireMatrixEqual(t, "GPU-L2 union", ref.UnionL2, got.UnionL2)
		requireFailuresEqual(t, ref.Failures, got.Failures)
	}
}

// TestCheckpointRestoreWithStreamCheck pins that online checking
// composes with checkpointing: a mid-run freeze/rewind with the stream
// checker armed — on an untraced run, so through a nil ring — must
// complete byte-identically both times, stream violations included, and
// match an uncheckpointed fresh run.
func TestCheckpointRestoreWithStreamCheck(t *testing.T) {
	sysCfg := viper.SmallCacheConfig()
	sysCfg.Bugs = viper.BugSet{LostWriteRace: true}
	var cfg core.Config
	var fresh *core.Report
	found := false
	for seed := uint64(1); seed <= 16 && !found; seed++ {
		cfg = campaignTestCfg()
		cfg.Seed = seed
		cfg.KeepGoing = false
		cfg.StreamCheck = true
		b := BuildGPU(sysCfg)
		fresh = core.New(b.K, b.Sys, cfg).Run()
		found = !fresh.Passed()
	}
	if !found {
		t.Fatal("injected lostwrite bug not detected within 16 seeds")
	}

	r := NewGPURun(sysCfg, cfg)
	r.Sys.EnableCheckpointing()

	r.Tester.Start()
	r.K.Run(sim.Tick(fresh.Failures[0].Tick / 2))
	var cut Checkpoint
	r.CheckpointInto(&cut)

	r.K.RunUntilIdle()
	r.Tester.Finish()
	first := r.Tester.Report()
	if got, want := reportJSON(t, first), reportJSON(t, fresh); got != want {
		t.Fatalf("checkpointed run diverged from uncheckpointed fresh run\nfresh:        %s\ncheckpointed: %s", want, got)
	}

	r.Restore(&cut)
	r.K.RunUntilIdle()
	r.Tester.Finish()
	second := r.Tester.Report()
	if got, want := reportJSON(t, second), reportJSON(t, first); got != want {
		t.Fatalf("restored run diverged from its first completion\nfirst:    %s\nrestored: %s", want, got)
	}
}
