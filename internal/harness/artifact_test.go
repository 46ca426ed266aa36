package harness

import (
	"errors"
	"strings"
	"testing"

	"drftest/internal/core"
	"drftest/internal/cputester"
	"drftest/internal/viper"
)

// failingGPURun hunts a small bug-injected configuration (the
// cmd/bughunt shape) for a seed that detects the bug, and returns the
// captured artifact of that failing run.
func failingGPURun(t *testing.T) *Artifact {
	t.Helper()
	sysCfg := viper.SmallCacheConfig()
	sysCfg.Bugs = viper.BugSet{LostWriteRace: true}
	for seed := uint64(1); seed <= 16; seed++ {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.NumWavefronts = 8
		cfg.EpisodesPerThread = 8
		cfg.ActionsPerEpisode = 30
		cfg.NumSyncVars = 4
		cfg.NumDataVars = 48
		cfg.StoreFraction = 0.6

		b := BuildGPU(sysCfg)
		ring := EnableTrace(b.K, 256)
		tester := core.New(b.K, b.Sys, cfg)
		rep := tester.Run()
		if rep.Passed() {
			continue
		}
		return NewGPUArtifact(sysCfg, cfg, tester, rep, ring)
	}
	t.Fatal("injected lostwrite bug not detected within 16 seeds")
	return nil
}

// TestGPUArtifactReplayReproduces: a forced checker failure produces
// an artifact, and replaying the artifact reproduces the identical
// failure — same kind, tick, address, values, op counts, RNG state and
// trace tail.
func TestGPUArtifactReplayReproduces(t *testing.T) {
	art := failingGPURun(t)
	if len(art.Trace) == 0 {
		t.Fatal("failing traced run recorded no trace entries")
	}
	// The failure itself must be visible in the trace tail.
	found := false
	for _, e := range art.Trace {
		if strings.HasPrefix(e.Label, "fail ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no failure entry in trace tail: %+v", art.Trace[len(art.Trace)-1])
	}

	path, err := art.Write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckReproduced(loaded, replayed); err != nil {
		t.Fatalf("replay did not reproduce the failure: %v", err)
	}
}

// TestGPUArtifactDetectsDivergence: replaying with a perturbed seed
// must NOT be accepted as a reproduction.
func TestGPUArtifactDetectsDivergence(t *testing.T) {
	art := failingGPURun(t)
	mutated := *art
	setup := *art.GPU
	setup.TestCfg.Seed++
	mutated.GPU = &setup
	replayed, err := Replay(&mutated)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckReproduced(art, replayed); err == nil {
		t.Fatal("perturbed replay reported as bit-identical reproduction")
	}
}

// TestCPUArtifactReplayReproduces uses a deliberately tiny deadlock
// threshold to force a deterministic forward-progress failure on the
// CPU tester, then round-trips it through an artifact and replay.
func TestCPUArtifactReplayReproduces(t *testing.T) {
	setup := CPUSetup{NumCPUs: 2, CacheCfg: DefaultCPUCache}
	setup.TestCfg = cputester.DefaultConfig()
	setup.TestCfg.Seed = 7
	setup.TestCfg.OpsPerCPU = 200
	setup.TestCfg.DeadlockThreshold = 5 // DRAM takes ~100 ticks: guaranteed "deadlock"
	setup.TestCfg.CheckPeriod = 10

	b := BuildCPU(setup.NumCPUs, setup.CacheCfg)
	ring := EnableTrace(b.K, 128)
	tester := cputester.New(b.K, b.Caches, setup.TestCfg)
	rep := tester.Run()
	if rep.Passed() {
		t.Fatal("tiny deadlock threshold did not force a failure")
	}
	art := NewCPUArtifact(setup, tester, rep, b.K.Executed(), ring)
	if art.FirstFailure().Kind != "deadlock" {
		t.Fatalf("forced failure kind = %s, want deadlock", art.FirstFailure().Kind)
	}

	path, err := art.Write(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckReproduced(loaded, replayed); err != nil {
		t.Fatalf("CPU replay did not reproduce the failure: %v", err)
	}
	// Bisection is GPU-only, and says so in a way callers can fall back on.
	if _, err := BisectArtifact(loaded, 0); !errors.Is(err, ErrBisectUnsupported) {
		t.Fatalf("BisectArtifact on a CPU artifact: %v, want ErrBisectUnsupported", err)
	}
}

// TestArtifactValidation: malformed artifacts are rejected on load.
func TestArtifactValidation(t *testing.T) {
	art := failingGPURun(t)
	dir := t.TempDir()

	art.Schema = ArtifactSchema + 1
	path, err := art.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(path); err == nil {
		t.Fatal("wrong-schema artifact loaded without error")
	}

	art.Schema = ArtifactSchema
	art.Kind = "tpu"
	path, err = art.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(path); err == nil {
		t.Fatal("unknown-kind artifact loaded without error")
	}
}

// TestGoldenArtifactReplay: testdata holds a replay artifact recorded
// by the original container/heap event kernel (PR 1). It must keep
// reproducing bit-identically — same failure, op counts, RNG state and
// trace tail — on the current scheduler, proving the rewrite preserved
// the kernel's deterministic ordering contract across releases, not
// just within one build.
func TestGoldenArtifactReplay(t *testing.T) {
	loaded, err := LoadArtifact("testdata/replay-gpu-seed5-tick1263.json")
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckReproduced(loaded, replayed); err != nil {
		t.Fatalf("PR 1 golden artifact no longer reproduces: %v", err)
	}
}
