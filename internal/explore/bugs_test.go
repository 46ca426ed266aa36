package explore

import (
	"testing"

	"drftest/internal/core"
	"drftest/internal/harness"
	"drftest/internal/viper"
)

// TestExploreFindsInjectedBugs asserts the satellite acceptance
// criterion: each injected protocol bug is found at a minimal
// 2-wavefront configuration within the depth bound, and the emitted
// schedule artifact replays to the same violation bit-identically.
func TestExploreFindsInjectedBugs(t *testing.T) {
	cases := []struct {
		name string
		bugs viper.BugSet
		sys  viper.Config
		tc   core.Config
	}{
		// LostWriteRace needs two false-sharing writes racing on one
		// line: the spread config's 2 lanes per WF provide them.
		{"lostwrite", viper.BugSet{LostWriteRace: true}, exploreSysCfg(), exploreSpreadCfg(3)},
		// NonAtomicRMW surfaces on the tiniest config: both WFs
		// fetch-add the single sync variable.
		{"nonatomic", viper.BugSet{NonAtomicRMW: true}, exploreSysCfg(), exploreTestCfg(1)},
		// A dropped write-back ack deadlocks the issuing thread; every
		// 2nd ack dropped so even a 6-action episode hits one.
		{"dropack", viper.BugSet{DropWBAckEvery: 2}, exploreSysCfg(), exploreTestCfg(1)},
		// StaleAcquire needs an episode to re-read a line its CU cached
		// before the acquire — the richer 2-lane, 8-episode history.
		{"staleacquire", viper.BugSet{StaleAcquire: true}, exploreBigSetsSys(), exploreRichCfg(2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.sys
			sys.Bugs = tc.bugs
			dir := t.TempDir()
			res, err := Run(Config{
				SysCfg:      sys,
				TestCfg:     tc.tc,
				Depth:       10,
				Budget:      5_000,
				Prune:       true,
				ArtifactDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("bug %s not found within depth bound: %+v", tc.name, res)
			}
			if res.Violation.ArtifactPath == "" {
				t.Fatalf("violation found but no artifact written: %+v", res.Violation)
			}
			t.Logf("%s: violation after %d schedules (+%d pruned), schedule length %d",
				tc.name, res.Schedules, res.PrunedPaths, len(res.Violation.Schedule))

			// The written artifact must replay to the same violation
			// bit-identically, with the recorded schedule pinned.
			art, err := harness.LoadArtifact(res.Violation.ArtifactPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(art.Schedule) != len(res.Violation.Schedule) {
				t.Fatalf("artifact schedule length %d != violation schedule length %d",
					len(art.Schedule), len(res.Violation.Schedule))
			}
			if _, err := harness.Replay(art); err != nil {
				t.Fatalf("schedule artifact did not reproduce: %v", err)
			}
		})
	}
}

// TestExploreBeatsRandomSchedule is the mode's raison d'être: a seed
// whose default (random-program, FIFO-schedule) run is clean, but where
// systematic schedule enumeration of that same program exposes the
// injected StaleAcquire bug.
func TestExploreBeatsRandomSchedule(t *testing.T) {
	sys := exploreBigSetsSys()
	sys.Bugs = viper.BugSet{StaleAcquire: true}
	tc := exploreRichCfg(16)
	if defaultRunFails(sys, tc) {
		t.Fatal("expected the default schedule of seed 16 to be clean; workload generation changed")
	}
	res, err := Run(Config{
		SysCfg:  sys,
		TestCfg: tc,
		Depth:   14,
		Budget:  3_000,
		Prune:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("exploration did not expose the bug the random schedule missed: %+v", res)
	}
	t.Logf("default schedule clean; violation on explored schedule %d (+%d pruned), schedule length %d",
		res.Schedules, res.PrunedPaths, len(res.Violation.Schedule))
}
