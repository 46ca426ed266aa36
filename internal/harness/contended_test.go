package harness

import (
	"fmt"
	"testing"

	"drftest/internal/core"
	"drftest/internal/viper"
)

// TestContendedSeedSteadyStateAllocs pins what a saturated seed costs in
// allocations on the reset path, where the count is exact: the swarm
// base shape (8 wavefronts × 8 episodes × 30 actions over 4 sync and 64
// data variables — 32 live episodes claiming far more than 64
// variables, so nearly every message stalls somewhere), under the base
// corner and under the wide-jitter one, whose responses ride jittered
// links. A warm seed costs 4–9 objects, its report (35 while the
// tester carved its requests from 256-request chunks), and more while
// the pools still meet new peaks; with a stall-queue slice per wake
// and a closure per jittered response it cost 335 and 4 226. The
// write-back L2 (WriteBackL2) runs the same rows; with a closure per L2
// atomic and a boxed line address per fetch it cost ≈ 560. So does a
// context with CaptureArtifacts set: its seeds run untraced, and a
// clean one captures nothing.
func TestContendedSeedSteadyStateAllocs(t *testing.T) {
	const maxContendedSeedAllocs = 120
	tc := core.DefaultConfig()
	tc.NumWavefronts, tc.EpisodesPerThread, tc.ActionsPerEpisode = 8, 8, 30
	tc.NumSyncVars, tc.NumDataVars, tc.StoreFraction = 4, 64, 0.6
	for _, row := range []struct{ wb, capture bool }{{false, false}, {true, false}, {false, true}} {
		sys := viper.SmallCacheConfig()
		sys.WriteBackL2 = row.wb
		cfg := CampaignConfig{SysCfg: sys, TestCfg: tc, Workers: 1, Mode: CampaignSwarm, CaptureArtifacts: row.capture}
		corners := NewCornerCache(tc, cfg.SysCfg)
		for _, levels := range []CornerLevels{{}, {axisJitter: 2}} {
			c := corners.Corner(levels)
			name := fmt.Sprintf("wb=%v capture=%v %s", row.wb, row.capture, c.Name())
			rc := NewRunContext(cfg)
			seed := uint64(1)
			next := func() { rc.RunSeed(seed, c); seed++ }
			next()
			next()
			allocs := testing.AllocsPerRun(4, next)
			t.Logf("%s: %.0f allocations per seed", name, allocs)
			if allocs > maxContendedSeedAllocs {
				t.Errorf("%s: a warm reset-path seed allocates %.0f objects, want ≤ %d", name, allocs, maxContendedSeedAllocs)
			}
			if d := rc.Delta(); len(d.Failures) != 0 || d.Ops != uint64(d.Seeds)*tc.TotalActions() {
				t.Fatalf("%s: seeds failed or lost ops: %+v", name, d)
			}
		}
	}
}
