package harness

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"drftest/internal/core"
	"drftest/internal/cputester"
	"drftest/internal/trace"
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
		ring := trace.NewRing(256)
		b.K.SetTracer(ring)
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
	if _, err := Replay(loaded); err != nil {
		t.Fatalf("replay did not reproduce the failure: %v", err)
	}
}

// TestArtifactWithRetiredStreamInlineKeyReplays: artifacts written
// while core.Config had a StreamInline key carry it in their testCfg.
// The key is gone (the online checker picks its own mode), but such an
// artifact still loads — LoadArtifactBytes is not strict — and
// reproduces.
func TestArtifactWithRetiredStreamInlineKeyReplays(t *testing.T) {
	data, err := failingGPURun(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	const at = `"StreamCheck": `
	if n := bytes.Count(data, []byte(at)); n != 1 {
		t.Fatalf("%d %s keys in the encoded artifact, want 1", n, at)
	}
	old := bytes.Replace(data, []byte(at), []byte(`"StreamInline": true, `+at), 1)
	loaded, err := LoadArtifactBytes("old.json", old)
	if err != nil {
		t.Fatalf("an artifact with the retired key no longer loads: %v", err)
	}
	if _, err := Replay(loaded); err != nil {
		t.Fatalf("an artifact with the retired key no longer reproduces: %v", err)
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
	if _, err := Replay(&mutated); err == nil {
		t.Fatal("perturbed replay reported as bit-identical reproduction")
	}
}

// TestCPUArtifactReplayReproduces uses a deliberately tiny deadlock
// threshold to force a deterministic forward-progress failure on the
// CPU tester, then round-trips it through an artifact and replay.
func TestCPUArtifactReplayReproduces(t *testing.T) {
	art := forcedDeadlockCPURun(t, 128)
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
	if _, err := Replay(loaded); err != nil {
		t.Fatalf("CPU replay did not reproduce the failure: %v", err)
	}
	// Bisection is GPU-only, and says so in a way callers can fall back on.
	if _, err := BisectArtifact(loaded, 0); !errors.Is(err, ErrBisectUnsupported) {
		t.Fatalf("BisectArtifact on a CPU artifact: %v, want ErrBisectUnsupported", err)
	}
}

// forcedDeadlockCPURun runs a CPU tester whose tiny deadlock threshold
// forces a deterministic forward-progress failure and returns the
// run's artifact, traced at traceDepth (0: untraced).
func forcedDeadlockCPURun(t *testing.T, traceDepth int) *Artifact {
	t.Helper()
	setup := CPUSetup{NumCPUs: 2, CacheCfg: DefaultCPUCache}
	setup.TestCfg = cputester.DefaultConfig()
	setup.TestCfg.Seed = 7
	setup.TestCfg.OpsPerCPU = 200
	setup.TestCfg.DeadlockThreshold = 5 // DRAM takes ~100 ticks: guaranteed "deadlock"
	setup.TestCfg.CheckPeriod = 10

	b := BuildCPU(setup.NumCPUs, setup.CacheCfg)
	var ring *trace.Ring
	if traceDepth > 0 {
		ring = trace.NewRing(traceDepth)
		b.K.SetTracer(ring)
	}
	tester := cputester.New(b.K, b.Caches, setup.TestCfg)
	rep := tester.Run()
	if rep.Passed() {
		t.Fatal("tiny deadlock threshold did not force a failure")
	}
	return NewCPUArtifact(setup, tester, rep, b.K.Executed(), ring)
}

// TestCaptureRefusesDivergentRun: an artifact is a checked replay of
// its producer's run, so a capture whose replay does not reproduce the
// run is refused. Each row alters one observable of an untraced
// artifact — a GPU run's first failure tick, a forced CPU deadlock's
// kernel event count, an explored schedule's final RNG state — and
// Replay's error names what diverged. A campaign seed whose capture
// diverges keeps its failure and records the error in ArtifactErr,
// with neither inline bytes nor a file.
func TestCaptureRefusesDivergentRun(t *testing.T) {
	sys, tc := BugHuntConfigs(viper.BugSet{LostWriteRace: true}, 1)
	gpu := func(t *testing.T) *Artifact {
		r := NewGPURun(sys, tc)
		rep := r.Tester.Run()
		if rep.Passed() {
			t.Fatal("the lost write went undetected")
		}
		return NewGPUArtifact(sys, tc, r.Tester, rep, nil)
	}
	scheduled := func(t *testing.T) *Artifact {
		a, err := LoadArtifact("../../cmd/gputester/testdata/golden/gputester_explore_nonatomic_artifact.json")
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Schedule) == 0 {
			t.Fatal("the explored artifact pins no schedule")
		}
		a.Trace = nil
		return a
	}
	for _, row := range []struct {
		name     string
		untraced func(*testing.T) *Artifact
		alter    func(*Artifact)
		want     string
	}{
		{"gpu", gpu, func(a *Artifact) { a.Failures[0].Tick++ }, "failure diverged"},
		{"cpu", func(t *testing.T) *Artifact { return forcedDeadlockCPURun(t, 0) },
			func(a *Artifact) { a.Ops.KernelEvents++ }, "op counts diverged"},
		{"scheduled", scheduled, func(a *Artifact) { a.RNG.State++ }, "RNG state diverged"},
	} {
		t.Run(row.name, func(t *testing.T) {
			a := row.untraced(t)
			if _, err := Replay(a); err != nil {
				t.Fatalf("the unaltered capture did not reproduce: %v", err)
			}
			row.alter(a)
			if _, err := Replay(a); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("Replay of the altered artifact = %v; want an error naming %q", err, row.want)
			}
		})
	}

	t.Run("RunSeed", func(t *testing.T) {
		defer func(orig func(*Artifact) (*Artifact, error)) { replay = orig }(replay)
		replay = func(a *Artifact) (*Artifact, error) {
			a.Failures[0].Tick++
			return Replay(a)
		}
		dir := t.TempDir()
		rc := NewRunContext(CampaignConfig{SysCfg: sys, TestCfg: tc, Workers: 1, ArtifactDir: dir, CaptureArtifacts: true})
		rc.RunSeed(tc.Seed, NewCornerCache(tc, sys).Corner(CornerLevels{}))
		fs := rc.Delta().Failures
		if len(fs) != 1 {
			t.Fatalf("want the seed's one failure record, got %d", len(fs))
		}
		if sf := fs[0]; !strings.Contains(sf.ArtifactErr, "failure diverged") || sf.Artifact != nil || sf.ArtifactPath != "" {
			t.Fatalf("divergent capture: error %q, %d inline bytes, path %q; want the error alone",
				sf.ArtifactErr, len(sf.Artifact), sf.ArtifactPath)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Fatalf("divergent capture wrote %d file(s)", len(files))
		}
	})
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

	// A GPU artifact is admitted like a submitted run (ValidateRun), so
	// one whose configuration could never have run — a system no tester
	// builds over, a window that wraps tick arithmetic, a slab or ring
	// no process can allocate, a bug its L2 cannot host — is refused
	// naming the field or the bug, instead of panicking, exhausting
	// memory or reporting a false PASS in Replay.
	for _, tc := range []struct {
		field  string
		mutate func(*Artifact)
	}{
		{"NumCUs", func(a *Artifact) { a.GPU.SysCfg.NumCUs = 0 }},
		{"RespJitter", func(a *Artifact) { a.GPU.SysCfg.RespJitter = 1<<63 - 1 }},
		{"NumDataVars", func(a *Artifact) { a.GPU.TestCfg.NumDataVars = 1 << 34 }},
		{"Bugs.NonAtomicWindow", func(a *Artifact) { a.GPU.SysCfg.Bugs.NonAtomicWindow = 1<<64 - 1 }},
		{"bug lostwrite is write-through only", func(a *Artifact) {
			a.GPU.SysCfg.WriteBackL2, a.GPU.SysCfg.Bugs.LostWriteRace = true, true
		}},
		{"traceDepth", func(a *Artifact) { a.TraceCapacity = 4_000_000_000 }},
	} {
		a, err := LoadArtifact("testdata/replay-gpu-seed5-tick1263.json")
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(a)
		data, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadArtifactBytes("malformed.json", data); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: LoadArtifact = %v; want an error naming the field", tc.field, err)
		}
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
	if _, err := Replay(loaded); err != nil {
		t.Fatalf("PR 1 golden artifact no longer reproduces: %v", err)
	}
}
