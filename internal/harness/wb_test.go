package harness

import (
	"strings"
	"testing"

	"drftest/internal/checker"
	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/viper"
)

type covMatrix = coverage.Matrix

func newWBMatrix() *covMatrix { return coverage.NewMatrix(viper.NewTCCWBSpec()) }

// TestTesterDrivesWriteBackVariantUnchanged is the §IV generality
// claim: the identical DRF tester runs against the VIPER-WB protocol
// and validates it with zero extensions — only the system config
// changed.
func TestTesterDrivesWriteBackVariantUnchanged(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		sysCfg := viper.SmallCacheConfig()
		sysCfg.WriteBackL2 = true
		b := BuildGPU(sysCfg)
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.NumWavefronts = 16
		cfg.EpisodesPerThread = 8
		cfg.ActionsPerEpisode = 40
		cfg.NumSyncVars = 8
		cfg.NumDataVars = 512
		cfg.RecordTrace = true
		rep := core.New(b.K, b.Sys, cfg).Run()
		if !rep.Passed() {
			t.Fatalf("seed %d: tester failed on VIPER-WB: %s", seed, rep.Failures[0].TableV())
		}
		if rep.OpsCompleted != cfg.TotalActions() {
			t.Fatalf("seed %d: ops lost", seed)
		}
		// Independent axiomatic re-verification of the WB execution.
		if vs := checker.Verify(rep.Trace); len(vs) != 0 {
			t.Fatalf("seed %d: axiomatic checker flagged VIPER-WB: %v", seed, vs[0])
		}
		if seed == 1 {
			l2 := b.Col.Matrix("GPU-L2WB").Summarize(TCCWBImpossible())
			t.Logf("VIPER-WB L2 coverage: %s", l2)
			t.Logf("inactive: %v", b.Col.Matrix("GPU-L2WB").InactiveCells(TCCWBImpossible()))
			if l2.Active == 0 {
				t.Fatal("no WB transitions recorded")
			}
		}
	}
}

// TestTesterCatchesBugInWriteBackVariant: the non-atomic-RMW bug
// injected into the *new* protocol is still caught by the unchanged
// tester — finding bugs in freshly written protocols is the entire
// point of the methodology.
func TestTesterCatchesBugInWriteBackVariant(t *testing.T) {
	detected := 0
	for seed := uint64(1); seed <= 8; seed++ {
		sysCfg := viper.SmallCacheConfig()
		sysCfg.WriteBackL2 = true
		sysCfg.Bugs.NonAtomicRMW = true
		b := BuildGPU(sysCfg)
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.NumWavefronts = 8
		cfg.EpisodesPerThread = 8
		cfg.ActionsPerEpisode = 30
		cfg.NumSyncVars = 4
		cfg.NumDataVars = 48
		cfg.StoreFraction = 0.6
		rep := core.New(b.K, b.Sys, cfg).Run()
		if !rep.Passed() {
			detected++
		}
	}
	t.Logf("NonAtomicRMW in VIPER-WB detected in %d/8 seeds", detected)
	if detected < 4 {
		t.Fatalf("tester too weak on the write-back variant: %d/8", detected)
	}
}

// TestWBCoverageSweep: a mini Table III sweep over the write-back
// protocol reaches high coverage of its own table.
func TestWBCoverageSweep(t *testing.T) {
	union := coverageUnionWB(t, 6)
	sum := union.Summarize(TCCWBImpossible())
	t.Logf("VIPER-WB union: %s", sum)
	if sum.Coverage() < 1.0 {
		t.Errorf("WB union coverage %.1f%% below 100%%; inactive: %v",
			100*sum.Coverage(), union.InactiveCells(TCCWBImpossible()))
	}
}

func coverageUnionWB(t *testing.T, runs int) *covMatrix {
	t.Helper()
	union := newWBMatrix()
	for seed := uint64(1); seed <= uint64(runs); seed++ {
		sysCfg := viper.SmallCacheConfig()
		if seed%2 == 0 {
			sysCfg = viper.LargeCacheConfig()
		}
		sysCfg.WriteBackL2 = true
		b := BuildGPU(sysCfg)
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.NumWavefronts = 16
		cfg.EpisodesPerThread = 8
		cfg.ActionsPerEpisode = 60
		cfg.NumSyncVars = 8
		cfg.NumDataVars = 1024
		rep := core.New(b.K, b.Sys, cfg).Run()
		if !rep.Passed() {
			t.Fatalf("seed %d failed: %v", seed, rep.Failures[0])
		}
		union.Merge(b.Col.Matrix("GPU-L2WB"))
	}
	return union
}

// TestBugsRefusedOrDetected: every registry bug under each L2 variant
// is either refused at admission — a write-through-only bug under the
// write-back L2, which would never fire and let the run report PASS —
// with an error naming the bug and the protocol, or detected within 8
// seeds at the case study's shape.
func TestBugsRefusedOrDetected(t *testing.T) {
	for _, b := range viper.Bugs {
		for _, wb := range []bool{false, true} {
			sys, cfg := BugHuntConfigs(b.Set, 1)
			sys.WriteBackL2 = wb
			err := ValidateRun(sys, cfg, 0)
			if refuse := wb && !b.WriteBack; refuse {
				if err == nil || !strings.Contains(err.Error(), b.Name) || !strings.Contains(err.Error(), "WriteBackL2") {
					t.Errorf("%s under WriteBackL2=%v: ValidateRun = %v, want a refusal naming the bug and WriteBackL2", b.Name, wb, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s under WriteBackL2=%v: refused: %v", b.Name, wb, err)
				continue
			}
			seed := uint64(1)
			for ; seed <= 8; seed++ {
				sys, cfg := BugHuntConfigs(b.Set, seed)
				sys.WriteBackL2 = wb
				if !NewGPURun(sys, cfg).Tester.Run().Passed() {
					break
				}
			}
			if seed > 8 {
				t.Errorf("%s under WriteBackL2=%v: admitted, but no seed of 8 detects it", b.Name, wb)
			} else {
				t.Logf("%s under WriteBackL2=%v: detected at seed %d", b.Name, wb, seed)
			}
		}
	}
}
