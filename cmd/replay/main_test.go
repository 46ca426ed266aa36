package main

import (
	"testing"

	"drftest/internal/core"
	"drftest/internal/explore"
	"drftest/internal/viper"
)

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
