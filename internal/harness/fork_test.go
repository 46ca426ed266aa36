package harness

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"drftest/internal/audit"
	"drftest/internal/core"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// artifactJSON canonicalizes an artifact for byte-equality comparison.
func artifactJSON(t *testing.T, a *Artifact) string {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal artifact: %v", err)
	}
	return string(b)
}

// TestForkRunBitIdentical is the guard on the warm-fork fast path: a
// run on a context forked from a clean warm snapshot must be
// bit-identical — report, coverage, failures — to a run on a freshly
// built system with the same seed, across the same configuration
// corners the Reset guard covers. The context is dirtied by a full
// run with a different seed between the snapshot and the fork, and
// forked twice from the same snapshot to pin repeated reuse.
func TestForkRunBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		sysCfg func() viper.Config
		test   func(cfg *core.Config)
	}{
		{"writethrough", viper.SmallCacheConfig, func(cfg *core.Config) {}},
		{"writeback", func() viper.Config {
			c := viper.SmallCacheConfig()
			c.WriteBackL2 = true
			return c
		}, func(cfg *core.Config) {}},
		{"jitter", func() viper.Config {
			c := viper.SmallCacheConfig()
			c.RespJitter = 12
			c.JitterSeed = 99
			return c
		}, func(cfg *core.Config) {}},
		{"lostwrite-bug", func() viper.Config {
			c := viper.SmallCacheConfig()
			c.Bugs.LostWriteRace = true
			return c
		}, func(cfg *core.Config) {}},
		{"dropack-bug", func() viper.Config {
			c := viper.SmallCacheConfig()
			c.Bugs.DropWBAckEvery = 20
			return c
		}, func(cfg *core.Config) { cfg.KeepGoing = false }},
		{"trace-and-stream", viper.SmallCacheConfig, func(cfg *core.Config) {
			cfg.RecordTrace = true
			cfg.StreamCheck = true
		}},
	}
	const seed, dirtySeed = 7, 1234

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sysCfg := tc.sysCfg()
			_, l2Name, _ := CampaignSpecs(sysCfg)
			testCfg := campaignTestCfg()
			tc.test(&testCfg)

			// Fresh build, run seed directly.
			fb := BuildGPU(sysCfg)
			fc := testCfg
			fc.Seed = seed
			fresh := core.New(fb.K, fb.Sys, fc).Run()
			freshL1 := fb.Col.Matrix("GPU-L1").Clone()
			freshL2 := fb.Col.Matrix(l2Name).Clone()

			// Second build: warm snapshot at the clean just-built point,
			// dirty the context with a different seed, then fork.
			rb := BuildGPU(sysCfg)
			snap := rb.Sys.Snapshot()
			rc := testCfg
			rc.Seed = dirtySeed
			tester := core.New(rb.K, rb.Sys, rc)
			tester.Run()

			for round := 1; round <= 2; round++ {
				rb.Col.Reset()
				tester.Fork(seed, []*viper.SystemSnapshot{snap})
				forked := tester.Run()
				if got, want := reportJSON(t, forked), reportJSON(t, fresh); got != want {
					t.Fatalf("fork %d: report differs from fresh-run report\nfresh: %s\nfork:  %s", round, want, got)
				}
				requireMatrixEqual(t, "GPU-L1", freshL1, rb.Col.Matrix("GPU-L1"))
				requireMatrixEqual(t, l2Name, freshL2, rb.Col.Matrix(l2Name))
			}
		})
	}
}

// TestForkCampaignMatchesReset: a campaign on the warm-fork fast path
// must produce exactly the outcome of the same campaign on the reset
// path — same seeds, failures, and union coverage — and stay
// worker-count independent. Swarm mode makes the forked workers cross
// corner boundaries (snapshot invalidation) and jittered corners
// (fork-ineligible fallback) along the way.
func TestForkCampaignMatchesReset(t *testing.T) {
	sysCfg := viper.SmallCacheConfig()
	sysCfg.Bugs.StaleAcquire = true // guarantee a non-empty failure set to compare
	base := CampaignConfig{
		SysCfg:    sysCfg,
		TestCfg:   campaignTestCfg(),
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

	forked := base
	forked.Fork = true
	for _, workers := range []int{3, 1} {
		forked.Workers = workers
		got := RunGPUCampaign(forked)
		if got.SeedsRun != ref.SeedsRun {
			t.Fatalf("fork workers=%d: ran %d seeds, reset ran %d", workers, got.SeedsRun, ref.SeedsRun)
		}
		requireMatrixEqual(t, "GPU-L1 union (fork)", ref.UnionL1, got.UnionL1)
		requireMatrixEqual(t, "GPU-L2 union (fork)", ref.UnionL2, got.UnionL2)
		requireFailuresEqual(t, ref.Failures, got.Failures)
	}
}

// TestCheckpointRestoreBitIdentical is the guard on mid-run
// checkpointing, the mechanism replay bisection stands on: freezing a
// run mid-flight, running it to completion, rewinding to the frozen
// cut and running it to completion again must produce byte-identical
// artifacts — which must also be byte-identical to an uncheckpointed
// fresh run of the same seed (snapshot arming must not perturb the
// simulation). Coverage must round-trip the same way.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	ref := failingGPURun(t) // uncheckpointed fresh-run reference
	_, l2Name, _ := CampaignSpecs(ref.GPU.SysCfg)

	r := NewGPURun(ref.GPU.SysCfg, ref.GPU.TestCfg, true, ref.TraceCapacity)
	r.Sys.EnableCheckpointing()

	// Run the first half, freeze a full cut of every layer.
	r.Tester.Start()
	r.K.Run(sim.Tick(ref.FirstFailure().Tick / 2))
	var cut Checkpoint
	r.CheckpointInto(&cut)

	// First completion.
	r.K.RunUntilIdle()
	r.Tester.Finish()
	first := NewGPUArtifact(ref.GPU.SysCfg, ref.GPU.TestCfg, r.Tester, r.Tester.Report(), r.Ring)
	firstL1 := r.Col.Matrix("GPU-L1").Clone()
	firstL2 := r.Col.Matrix(l2Name).Clone()
	if got, want := artifactJSON(t, first), artifactJSON(t, ref); got != want {
		t.Fatalf("checkpointed run diverged from uncheckpointed fresh run\nfresh:        %s\ncheckpointed: %s", want, got)
	}

	// Rewind to the cut, complete again.
	r.Restore(&cut)
	r.K.RunUntilIdle()
	r.Tester.Finish()
	second := NewGPUArtifact(ref.GPU.SysCfg, ref.GPU.TestCfg, r.Tester, r.Tester.Report(), r.Ring)
	if got, want := artifactJSON(t, second), artifactJSON(t, first); got != want {
		t.Fatalf("restored run diverged from its own first completion\nfirst:    %s\nrestored: %s", want, got)
	}
	requireMatrixEqual(t, "GPU-L1 (restored)", firstL1, r.Col.Matrix("GPU-L1"))
	requireMatrixEqual(t, l2Name+" (restored)", firstL2, r.Col.Matrix(l2Name))
}

// TestRunFieldAudits pins the run context and its cut: a layer added
// to GPURun must be classified here and, if it carries run state, join
// Checkpoint, CheckpointInto and Restore together.
func TestRunFieldAudits(t *testing.T) {
	audit.Fields(t, GPURun{}, map[string]string{
		"GPUBuild": "kernel, system and collector: each snapshotted into every Checkpoint",
		"Tester":   "snapshotted into every Checkpoint",
		"Ring":     "snapshotted into every Checkpoint; nil on an untraced run (nil snapshot, restore resets)",
	})
	audit.Fields(t, GPUBuild{}, map[string]string{
		"K":   "Checkpoint.kernel",
		"Sys": "Checkpoint.sys",
		"Col": "Checkpoint.col",
	})
	audit.Fields(t, Checkpoint{}, map[string]string{
		"kernel": "kernel event-queue snapshot; restored first",
		"sys":    "full coherence-stack snapshot; restored second, before the tester",
		"tester": "tester + stream-checker snapshot; needs kernel and system already at the cut",
		"col":    "coverage-collector snapshot",
		"ring":   "trace-ring snapshot; nil for an untraced run",
	})
}

// TestBisectMinimizeCampaignArtifact is the end-to-end loop the PR
// exists for: a campaign-produced failing artifact bisects to a first
// failing tick and minimizes to a companion artifact that still
// reproduces through the standard Load/Replay/CheckReproduced path.
func TestBisectMinimizeCampaignArtifact(t *testing.T) {
	dir := t.TempDir()
	sysCfg := viper.SmallCacheConfig()
	sysCfg.Bugs.StaleAcquire = true
	res := RunGPUCampaign(CampaignConfig{
		SysCfg:      sysCfg,
		TestCfg:     campaignTestCfg(),
		BaseSeed:    100,
		Workers:     3,
		BatchSize:   8,
		MaxSeeds:    16,
		ArtifactDir: dir,
		TraceDepth:  512,
	})
	if len(res.Failures) == 0 {
		t.Fatal("bug-injected campaign detected no failures")
	}
	sf := res.Failures[0]
	if sf.ArtifactPath == "" || sf.ArtifactErr != "" {
		t.Fatalf("seed %d: no usable artifact (path %q, err %q)", sf.Seed, sf.ArtifactPath, sf.ArtifactErr)
	}
	art, err := LoadArtifact(sf.ArtifactPath)
	if err != nil {
		t.Fatal(err)
	}

	bi, err := BisectArtifact(art, 0)
	if err != nil {
		t.Fatalf("bisect: %v", err)
	}
	if bi.FirstFailingTick == 0 || bi.FirstFailingTick > bi.ReportedTick {
		t.Fatalf("bisected tick %d outside (0, reported %d]", bi.FirstFailingTick, bi.ReportedTick)
	}

	min := Minimize(art, filepath.Base(sf.ArtifactPath), bi.FirstFailingTick)
	minPath, err := WriteMinimized(sf.ArtifactPath, min)
	if err != nil {
		t.Fatal(err)
	}
	if want := MinimizedPath(sf.ArtifactPath); minPath != want {
		t.Fatalf("minimized artifact at %s, want %s", minPath, want)
	}

	loaded, err := LoadArtifact(minPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.MinimizedFrom != filepath.Base(sf.ArtifactPath) || loaded.FirstFailingTick != bi.FirstFailingTick {
		t.Fatalf("minimized artifact provenance = (%q, %d), want (%q, %d)",
			loaded.MinimizedFrom, loaded.FirstFailingTick, filepath.Base(sf.ArtifactPath), bi.FirstFailingTick)
	}
	if len(loaded.Trace) >= len(art.Trace) && bi.FirstFailingTick > art.Trace[0].Tick {
		t.Fatalf("minimization did not shrink the trace: %d of %d entries", len(loaded.Trace), len(art.Trace))
	}
	replayed, err := Replay(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckReproduced(loaded, replayed); err != nil {
		t.Fatalf("minimized artifact did not reproduce: %v", err)
	}
}

// TestNoMaps pins that a run's consistent cut holds no Go map (see
// audit.NoMaps): every layer's snapshot copies keyed state as a table's
// slot array or a slice. The L2 snapshots sit behind an interface and
// are audited in internal/viper.
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, Checkpoint{})
}
