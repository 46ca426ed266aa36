package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drftest/internal/core"
	"drftest/internal/viper"
)

// directedTestCampaign is the shared config of the mode tests: small
// enough to run in seconds, enough saturation patience (SaturateK) for
// the swarm/directed policies to explore corners past the base
// configuration's plateau.
func directedTestCampaign(mode CampaignMode) CampaignConfig {
	return CampaignConfig{
		SysCfg:    viper.SmallCacheConfig(),
		TestCfg:   campaignTestCfg(),
		BaseSeed:  1,
		BatchSize: 8,
		SaturateK: 8,
		MaxSeeds:  512,
		Mode:      mode,
	}
}

// campaignOutcome canonicalizes the worker-count-independent part of a
// campaign result for byte comparison (wall times and throughput
// excluded, artifact paths included — the path set is deterministic).
func campaignOutcome(t *testing.T, r *CampaignResult) string {
	t.Helper()
	out := struct {
		Mode                string
		SeedsRun, Batches   int
		NewCellsByBatch     []int
		CornerByBatch       []string
		ColdByBatch         []int
		NewCellNamesByBatch [][]string
		Saturated           bool
		SeedsToSaturation   int
		CellsAtSaturation   int
		L1Hits, L2Hits      [][]uint64
		Failures            []SeedFailure
		TotalOps            uint64
		TotalEvents         uint64
	}{
		r.Mode.String(), r.SeedsRun, r.Batches, r.NewCellsByBatch,
		r.CornerByBatch, r.ColdByBatch, r.NewCellNamesByBatch, r.Saturated,
		r.SeedsToSaturation, r.CellsAtSaturation,
		r.UnionL1.Hits, r.UnionL2.Hits, r.Failures, r.TotalOps, r.TotalEvents,
	}
	b, err := json.Marshal(&out)
	if err != nil {
		t.Fatalf("marshal outcome: %v", err)
	}
	return string(b)
}

// TestDirectedCampaignDeterministic: the whole observable outcome of a
// swarm or directed campaign — seeds run, batches, corners, unions,
// cold counts, failures — must be byte-identical across worker counts
// 1/3/8. This is the batch-boundary determinism argument made
// executable: corner choice is a pure function of (BaseSeed, batch,
// new-cell history) and never of worker scheduling.
func TestDirectedCampaignDeterministic(t *testing.T) {
	for _, mode := range []CampaignMode{CampaignSwarm, CampaignDirected} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := directedTestCampaign(mode)
			cfg.SysCfg.Bugs.StaleAcquire = true // non-empty failure set to compare
			cfg.MaxSeeds = 96
			cfg.Workers = 1
			ref := RunGPUCampaign(cfg)
			refOut := campaignOutcome(t, ref)
			if ref.SeedsRun == 0 || len(ref.Failures) == 0 {
				t.Fatalf("degenerate reference campaign: %d seeds, %d failures", ref.SeedsRun, len(ref.Failures))
			}
			for _, workers := range []int{3, 8} {
				c := cfg
				c.Workers = workers
				got := RunGPUCampaign(c)
				if out := campaignOutcome(t, got); out != refOut {
					t.Fatalf("workers=%d outcome differs from workers=1\nref: %s\ngot: %s", workers, refOut, out)
				}
			}
		})
	}
}

// TestTCPFullCoverageReachable pins the TCPImpossible audit: every
// defined TCP cell — including the A-row stalls that need two wavefronts
// racing on one CU — is reachable in GPU-only mode, so the L1 mask is
// intentionally empty. A directed campaign must drive L1 coverage to
// 100% of defined cells (and the L2 to 100% of its reachable cells).
func TestTCPFullCoverageReachable(t *testing.T) {
	res := RunGPUCampaign(directedTestCampaign(CampaignDirected))
	if got := len(TCPImpossible()); got != 0 {
		t.Fatalf("TCPImpossible names %d cells; this test assumes the audit found none", got)
	}
	if res.UnionL1Sum.Active != res.UnionL1Sum.Defined {
		t.Fatalf("directed campaign left TCP cells cold: %v (%d/%d active)",
			res.UnionL1.InactiveCells(TCPImpossible()), res.UnionL1Sum.Active, res.UnionL1Sum.Defined)
	}
	if res.UnionL2Sum.Active != res.UnionL2Sum.Reachable {
		t.Fatalf("directed campaign left reachable TCC cells cold: %v",
			res.UnionL2.InactiveCells(TCCImpossibleGPUOnly()))
	}
}

// TestSwarmModesBeatUniform pins that configuration diversity buys
// coverage: at the same seed budget, swarm and directed campaigns must
// activate at least as many cells as the uniform baseline — and on this
// small system strictly more, because the base configuration provably
// cannot reach the replacement and A-row stall cells the corners buy —
// and directed's feedback must not need more seeds than blind swarm
// sampling to saturate. They read uniform 34 cells in 8 seeds, swarm
// 37 in 40 and directed 37 in 24.
func TestSwarmModesBeatUniform(t *testing.T) {
	uniform := RunGPUCampaign(directedTestCampaign(CampaignUniform))
	swarm := RunGPUCampaign(directedTestCampaign(CampaignSwarm))
	directed := RunGPUCampaign(directedTestCampaign(CampaignDirected))
	t.Logf("uniform %d cells in %d seeds, swarm %d in %d, directed %d in %d",
		uniform.CellsAtSaturation, uniform.SeedsToSaturation,
		swarm.CellsAtSaturation, swarm.SeedsToSaturation,
		directed.CellsAtSaturation, directed.SeedsToSaturation)
	for _, res := range []*CampaignResult{swarm, directed} {
		if res.CellsAtSaturation <= uniform.CellsAtSaturation {
			t.Fatalf("%s: %d cells at saturation, uniform baseline %d — corner diversity bought nothing",
				res.Mode, res.CellsAtSaturation, uniform.CellsAtSaturation)
		}
	}
	if directed.SeedsToSaturation > swarm.SeedsToSaturation {
		t.Fatalf("directed needed %d seeds to saturate, swarm only %d — feedback bought nothing",
			directed.SeedsToSaturation, swarm.SeedsToSaturation)
	}
}

// TestCampaignWritesReplayableArtifacts is the end-to-end regression
// for the campaign artifact bugfix: a bug-injected campaign must write
// exactly one artifact per failing seed, report its path, and every
// artifact must replay bit-identically through the same Load/Replay
// path cmd/replay uses.
func TestCampaignWritesReplayableArtifacts(t *testing.T) {
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
		Mode:        CampaignSwarm,
		ArtifactDir: dir,
		TraceDepth:  512,
	})
	if len(res.Failures) == 0 {
		t.Fatal("bug-injected campaign detected no failures")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(res.Failures) {
		t.Fatalf("campaign wrote %d artifacts for %d failing seeds", len(entries), len(res.Failures))
	}
	for _, sf := range res.Failures {
		if sf.ArtifactErr != "" {
			t.Fatalf("seed %d: artifact write failed: %s", sf.Seed, sf.ArtifactErr)
		}
		if sf.ArtifactPath == "" {
			t.Fatalf("seed %d: failing seed reported no artifact path", sf.Seed)
		}
		if filepath.Dir(sf.ArtifactPath) != dir {
			t.Fatalf("seed %d: artifact %s written outside %s", sf.Seed, sf.ArtifactPath, dir)
		}
		orig, err := LoadArtifact(sf.ArtifactPath)
		if err != nil {
			t.Fatalf("seed %d: %v", sf.Seed, err)
		}
		if orig.Seed != sf.Seed {
			t.Fatalf("artifact %s records seed %d, campaign says %d", sf.ArtifactPath, orig.Seed, sf.Seed)
		}
		if _, err := Replay(orig); err != nil {
			t.Fatalf("seed %d: campaign artifact did not reproduce: %v", sf.Seed, err)
		}
	}
}

// TestResetWithConfigBitIdentical extends the reuse guard across
// configuration corners: a context dirtied at the base config and then
// ResetWithConfig'd to a corner must run bit-identically to a fresh
// build at that corner — including corners that change the wavefront
// shape, the address space, and the response-network jitter.
func TestResetWithConfigBitIdentical(t *testing.T) {
	baseSys := viper.SmallCacheConfig()
	baseTest := campaignTestCfg()
	corners := [][numAxes]int{
		{1, 0, 0, 0}, // atomics hot
		{0, 1, 2, 0}, // tight locality, wide scale
		{2, 2, 1, 2}, // everything off-base incl. per-seed jitter
		{0, 0, 0, 1}, // jitter off (base SmallCacheConfig has none anyway)
	}
	const seed, dirtySeed = 11, 4242
	for _, levels := range corners {
		c := makeCorner(baseTest, baseSys, levels)
		t.Run(c.Name(), func(t *testing.T) {
			cornerSys := baseSys
			cornerSys.RespJitter = c.RespJitter
			if c.JitterPerSeed {
				cornerSys.JitterSeed = seed
			}
			_, l2Name, _ := CampaignSpecs(cornerSys)

			// Fresh build directly at the corner.
			fb := BuildGPU(cornerSys)
			fc := c.TestCfg
			fc.Seed = seed
			fresh := core.New(fb.K, fb.Sys, fc).Run()
			freshL1 := fb.Col.Matrix("GPU-L1").Clone()
			freshL2 := fb.Col.Matrix(l2Name).Clone()

			// Reused context: built and dirtied at the base config, then
			// retuned to the corner exactly like campaignWorker.runSeed.
			rb := BuildGPU(baseSys)
			rc := baseTest
			rc.Seed = dirtySeed
			tester := core.New(rb.K, rb.Sys, rc)
			tester.Run()
			rb.K.Reset()
			rb.Sys.SetRespJitter(cornerSys.RespJitter, cornerSys.JitterSeed)
			rb.Sys.Reset()
			rb.Col.Reset()
			tester.ResetWithConfig(seed, c.TestCfg)
			reset := tester.Run()

			if got, want := reportJSON(t, reset), reportJSON(t, fresh); got != want {
				t.Fatalf("corner reset-run differs from fresh corner run\nfresh: %s\nreset: %s", want, got)
			}
			requireMatrixEqual(t, "GPU-L1", freshL1, rb.Col.Matrix("GPU-L1"))
			requireMatrixEqual(t, l2Name, freshL2, rb.Col.Matrix(l2Name))
		})
	}
}

// TestValidateCorners: a base that defers its address range to the
// defaults passes at every corner; one whose explicit range exactly
// fits its own variables is refused, naming the first corner that
// outgrows it (spread atomics quadruples the sync variables and base
// locality keeps the range).
func TestValidateCorners(t *testing.T) {
	sysCfg := viper.SmallCacheConfig()
	if err := ValidateCorners(campaignTestCfg(), sysCfg, 0); err != nil {
		t.Fatalf("default-range base refused: %v", err)
	}
	tc := campaignTestCfg()
	tc.NumSyncVars, tc.NumDataVars, tc.AddressRangeBytes = 4, 64, 68*4
	err := ValidateCorners(tc, sysCfg, 0)
	if err == nil || !strings.Contains(err.Error(), "atomics=spread,locality=base,scale=base,jitter=base") {
		t.Fatalf("ValidateCorners = %v, want the first spread-atomics corner named", err)
	}
	tc.AddressRangeBytes = (16 + 64) * 4 // room for the spread corner's 16 sync variables
	if err := ValidateCorners(tc, sysCfg, 0); err != nil {
		t.Fatalf("a range that fits the largest base-locality corner was refused: %v", err)
	}
}
