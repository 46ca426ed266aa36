package harness

import (
	"testing"

	"drftest/internal/checker"
	"drftest/internal/core"
	"drftest/internal/viper"
)

func tracedRun(t *testing.T, bugs viper.BugSet, seed uint64) *core.Report {
	t.Helper()
	sysCfg := viper.SmallCacheConfig()
	sysCfg.Bugs = bugs
	b := BuildGPU(sysCfg)
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.NumWavefronts = 8
	cfg.EpisodesPerThread = 8
	cfg.ActionsPerEpisode = 30
	cfg.NumSyncVars = 4
	cfg.NumDataVars = 64
	cfg.StoreFraction = 0.6
	cfg.RecordTrace = true
	cfg.KeepGoing = true
	return core.New(b.K, b.Sys, cfg).Run()
}

// TestCheckersAgreeOnCorrectProtocol: online and axiomatic checkers
// both pass a correct run.
func TestCheckersAgreeOnCorrectProtocol(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rep := tracedRun(t, viper.BugSet{}, seed)
		if !rep.Passed() {
			t.Fatalf("online checker flagged a correct run: %v", rep.Failures[0])
		}
		if rep.Trace == nil || len(rep.Trace.Ops) == 0 {
			t.Fatal("trace not recorded")
		}
		if vs := checker.Verify(rep.Trace); len(vs) != 0 {
			t.Fatalf("axiomatic checker disagreed on a correct run: %v", vs[0])
		}
	}
}

// TestStreamMatchesPostHocOnCorpus: on full tester-produced traces —
// correct and bug-injected — the streaming Verify must return exactly
// the violation list of the map-building reference implementation,
// element for element in the same order.
func TestStreamMatchesPostHocOnCorpus(t *testing.T) {
	bugSets := []viper.BugSet{
		{},
		{LostWriteRace: true},
		{NonAtomicRMW: true},
		{StaleAcquire: true},
	}
	for _, bugs := range bugSets {
		for seed := uint64(1); seed <= 4; seed++ {
			rep := tracedRun(t, bugs, seed)
			got := checker.Verify(rep.Trace)
			want := checker.VerifyPostHoc(rep.Trace)
			if len(got) != len(want) {
				t.Fatalf("bugs=%+v seed=%d: stream found %d violations, post-hoc %d\nstream: %v\nposthoc: %v",
					bugs, seed, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("bugs=%+v seed=%d: violation %d differs\nstream:  %s\nposthoc: %s",
						bugs, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCheckersAgreeOnBugs: when the online checker catches an injected
// bug, the independent axiomatic verifier must flag the same execution.
func TestCheckersAgreeOnBugs(t *testing.T) {
	cases := []struct {
		name string
		bugs viper.BugSet
	}{
		{"LostWriteRace", viper.BugSet{LostWriteRace: true}},
		{"NonAtomicRMW", viper.BugSet{NonAtomicRMW: true}},
		{"StaleAcquire", viper.BugSet{StaleAcquire: true}},
	}
	for _, c := range cases {
		agreed := false
		for seed := uint64(1); seed <= 8 && !agreed; seed++ {
			rep := tracedRun(t, c.bugs, seed)
			onlineCaught := !rep.Passed()
			axioms := checker.Verify(rep.Trace)
			if onlineCaught && len(axioms) == 0 {
				t.Fatalf("%s seed %d: online caught the bug (%v) but axiomatic checker passed the trace",
					c.name, seed, rep.Failures[0].Kind)
			}
			if onlineCaught && len(axioms) > 0 {
				agreed = true
				t.Logf("%s: both checkers flag seed %d (online: %v; axiomatic: %s)",
					c.name, seed, rep.Failures[0].Kind, axioms[0].Axiom)
			}
		}
		if !agreed {
			t.Errorf("%s: never provoked within 8 seeds", c.name)
		}
	}
}

// TestBugFiringCounts: the NonAtomicRMW and StaleAcquire hooks count
// their firings, the L2 atomics answered unserialized and the acquires
// delivered without a flash-invalidate. At BugHuntConfigs' shape, under
// either L2 for the bugs the write-back L2 hosts, each counter fires
// under its bug, stays 0 with no bug, System.BugFirings is their sum,
// and a reset clears it.
func TestBugFiringCounts(t *testing.T) {
	counts := func(sys *viper.System) (atomics, invalidates uint64) {
		for _, s := range sys.Seqs {
			invalidates += s.SkippedInvalidates()
		}
		return sys.L2Stats()["unserialized_atomics"], invalidates
	}
	for _, c := range []struct {
		name                 string
		bugs                 viper.BugSet
		wb                   bool
		atomics, invalidates bool
	}{
		{"none", viper.BugSet{}, false, false, false},
		{"NonAtomicRMW", viper.BugSet{NonAtomicRMW: true}, false, true, false},
		{"StaleAcquire", viper.BugSet{StaleAcquire: true}, false, false, true},
		{"none/wb", viper.BugSet{}, true, false, false},
		{"NonAtomicRMW/wb", viper.BugSet{NonAtomicRMW: true}, true, true, false},
		{"StaleAcquire/wb", viper.BugSet{StaleAcquire: true}, true, false, true},
	} {
		sysCfg, cfg := BugHuntConfigs(c.bugs, 1)
		sysCfg.WriteBackL2 = c.wb
		b := BuildGPU(sysCfg)
		core.New(b.K, b.Sys, cfg).Run()
		atomics, invalidates := counts(b.Sys)
		t.Logf("%s: %d unserialized atomics, %d skipped invalidates", c.name, atomics, invalidates)
		if (atomics > 0) != c.atomics || (invalidates > 0) != c.invalidates {
			t.Errorf("%s: %d unserialized atomics and %d skipped invalidates, want fired %v and %v",
				c.name, atomics, invalidates, c.atomics, c.invalidates)
		}
		if n := b.Sys.BugFirings(); n != atomics+invalidates {
			t.Errorf("%s: BugFirings %d, want the counters' sum %d", c.name, n, atomics+invalidates)
		}
		b.K.Reset()
		b.Sys.Reset()
		if atomics, invalidates := counts(b.Sys); atomics != 0 || invalidates != 0 {
			t.Errorf("%s: a reset left %d unserialized atomics and %d skipped invalidates", c.name, atomics, invalidates)
		}
	}
}
