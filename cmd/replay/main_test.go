package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/cputester"
	"drftest/internal/explore"
	"drftest/internal/harness"
	"drftest/internal/viper"
)

// TestMain doubles as the replay command: re-executing the test binary
// with DRFTEST_RUN_MAIN set runs main on its arguments, so the tests
// see its exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("DRFTEST_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs replay with args in a subprocess and returns its exit
// status and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "DRFTEST_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestReplayRefusesMalformedArtifact: an artifact whose configuration
// no run could have had — no CUs, a jitter window that wraps tick
// arithmetic, a slab or trace ring no process can allocate, a bug
// window past the end of time — is a load error: exit 2 with one line
// naming the field, before anything is built.
func TestReplayRefusesMalformedArtifact(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*harness.Artifact)
	}{
		{"NumCUs", func(a *harness.Artifact) { a.GPU.SysCfg.NumCUs = 0 }},
		{"RespJitter", func(a *harness.Artifact) { a.GPU.SysCfg.RespJitter = 1<<63 - 1 }},
		{"NumDataVars", func(a *harness.Artifact) { a.GPU.TestCfg.NumDataVars = 1 << 34 }},
		{"Bugs.NonAtomicWindow", func(a *harness.Artifact) { a.GPU.SysCfg.Bugs.NonAtomicWindow = 1<<64 - 1 }},
		{"traceDepth", func(a *harness.Artifact) { a.TraceCapacity = 4_000_000_000 }},
	} {
		a, err := harness.LoadArtifact("../../internal/harness/testdata/replay-gpu-seed5-tick1263.json")
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(a)
		path, err := a.Write(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		code, stderr := runMain(t, path)
		if code != 2 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.field) {
			t.Errorf("%s: replay %s exited %d with %q; want 2 and one line naming the field",
				tc.field, filepath.Base(path), code, stderr)
		}
	}
}

// TestReplayRefusesMalformedCPUArtifact: a CPU artifact is admitted
// like a GPU one (harness.ValidateCPURun). An address range too small
// for its locations used to hang replay placing them; a negative CPU
// count, a zero cache config and a 3-byte line used to panic the
// build. Each is a load error: exit 2 with one line naming the field.
func TestReplayRefusesMalformedCPUArtifact(t *testing.T) {
	setup := harness.CPUSetup{NumCPUs: 2, CacheCfg: harness.DefaultCPUCache, TestCfg: cputester.DefaultConfig()}
	setup.TestCfg.OpsPerCPU = 50
	setup.TestCfg.DeadlockThreshold, setup.TestCfg.CheckPeriod = 5, 10 // a deterministic "deadlock"
	b := harness.BuildCPU(setup.NumCPUs, setup.CacheCfg)
	tester := cputester.New(b.K, b.Caches, setup.TestCfg)
	rep := tester.Run()
	base := harness.NewCPUArtifact(setup, tester, rep, b.K.Executed(), nil)
	if len(base.Failures) == 0 {
		t.Fatal("the base run did not fail")
	}
	for _, tc := range []struct {
		field  string
		mutate func(*harness.CPUSetup)
	}{
		{"AddressRangeBytes", func(s *harness.CPUSetup) { s.TestCfg.AddressRangeBytes, s.TestCfg.NumLocations = 4, 256 }},
		{"numCPUs", func(s *harness.CPUSetup) { s.NumCPUs = -3 }},
		{"cacheCfg", func(s *harness.CPUSetup) { s.CacheCfg = cache.Config{} }},
		{"LineSize", func(s *harness.CPUSetup) { s.CacheCfg.LineSize = 3 }},
	} {
		a := *base
		cpu := *base.CPU
		tc.mutate(&cpu)
		a.CPU = &cpu
		path, err := a.Write(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		code, stderr := runMain(t, path)
		if code != 2 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.field) {
			t.Errorf("%s: replay %s exited %d with %q; want 2 and one line naming the field",
				tc.field, filepath.Base(path), code, stderr)
		}
	}
}

// TestBisectFallsBackOnPinnedSchedule pins replay -bisect on an
// explorer-found violation: checkpointed bisection cannot rewind a
// pinned schedule (harness.ErrBisectUnsupported), which is a reason to
// skip it, not a divergence — the artifact is replayed and checked the
// plain way and reproduces.
func TestBisectFallsBackOnPinnedSchedule(t *testing.T) {
	sys := viper.SmallCacheConfig()
	sys.NumCUs, sys.NumL2Slices, sys.RespJitter = 2, 1, 0
	sys.Bugs.NonAtomicRMW = true
	tc := core.DefaultConfig()
	tc.Seed = 1
	tc.NumWavefronts, tc.ThreadsPerWF = 2, 1
	tc.EpisodesPerThread, tc.ActionsPerEpisode = 1, 6
	tc.NumSyncVars, tc.NumDataVars = 1, 1
	found, err := explore.Run(explore.Config{SysCfg: sys, TestCfg: tc, Depth: 10, Prune: true, ArtifactDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if found.Violation == nil || found.Violation.ArtifactPath == "" || len(found.Violation.Schedule) == 0 {
		t.Fatalf("exploration of the injected bug wrote no schedule-pinned artifact: %+v", found)
	}

	res, err := replayOne(found.Violation.ArtifactPath, "", nil, false, true, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != "" || !res.Reproduced {
		t.Fatalf("replay -bisect filed a pinned schedule as a failure: reproduced=%v error=%q", res.Reproduced, res.Error)
	}
	if res.Bisect != nil || res.BisectSkipped == "" || res.ScheduleLen != len(found.Violation.Schedule) {
		t.Fatalf("want no bisect result and a stated reason: bisect=%+v skipped=%q scheduleLen=%d",
			res.Bisect, res.BisectSkipped, res.ScheduleLen)
	}
}
