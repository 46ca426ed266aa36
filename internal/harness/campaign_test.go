package harness

import (
	"encoding/json"
	"testing"

	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/viper"
)

func campaignTestCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.NumWavefronts = 8
	cfg.EpisodesPerThread = 8
	cfg.ActionsPerEpisode = 30
	cfg.NumSyncVars = 4
	cfg.NumDataVars = 64
	cfg.StoreFraction = 0.6
	cfg.KeepGoing = true
	return cfg
}

// reportJSON canonicalizes a report for equality comparison: wall time
// is the one field legitimately different between two identical runs.
func reportJSON(t *testing.T, rep *core.Report) string {
	t.Helper()
	r := *rep
	r.WallTime = 0
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return string(b)
}

func requireMatrixEqual(t *testing.T, name string, a, b *coverage.Matrix) {
	t.Helper()
	if len(a.Hits) != len(b.Hits) {
		t.Fatalf("%s: state count %d vs %d", name, len(a.Hits), len(b.Hits))
	}
	for i := range a.Hits {
		for j := range a.Hits[i] {
			if a.Hits[i][j] != b.Hits[i][j] {
				t.Fatalf("%s: cell [%s][%s] = %d vs %d",
					name, a.Spec.States[i], a.Spec.Events[j], a.Hits[i][j], b.Hits[i][j])
			}
		}
	}
}

// TestResetRunBitIdentical is the guard on the whole reuse design: a
// run on a reset context must be bit-identical — report, coverage,
// failures — to a run on a freshly built system with the same seed.
// The reset context is deliberately dirtied first by a run with a
// different seed (and, in the bug cases, a run that stopped mid-flight
// with pending kernel events).
func TestResetRunBitIdentical(t *testing.T) {
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

			// Second build: dirty it with a different seed, then reset
			// and run the same seed as above.
			rb := BuildGPU(sysCfg)
			rc := testCfg
			rc.Seed = dirtySeed
			tester := core.New(rb.K, rb.Sys, rc)
			tester.Run()
			rb.K.Reset()
			rb.Sys.Reset()
			rb.Col.Reset()
			tester.Reset(seed)
			reset := tester.Run()

			if got, want := reportJSON(t, reset), reportJSON(t, fresh); got != want {
				t.Fatalf("reset-run report differs from fresh-run report\nfresh: %s\nreset: %s", want, got)
			}
			requireMatrixEqual(t, "GPU-L1", freshL1, rb.Col.Matrix("GPU-L1"))
			requireMatrixEqual(t, l2Name, freshL2, rb.Col.Matrix(l2Name))
		})
	}
}

// TestCampaignMatchesSerial: the campaign's union coverage and failure
// set must equal a plain serial loop over the same seed sequence, and
// must not depend on the worker count.
func TestCampaignMatchesSerial(t *testing.T) {
	sysCfg := viper.SmallCacheConfig()
	sysCfg.Bugs.StaleAcquire = true // guarantee a non-empty failure set to compare
	base := CampaignConfig{
		SysCfg:    sysCfg,
		TestCfg:   campaignTestCfg(),
		BaseSeed:  100,
		Workers:   1,
		BatchSize: 4,
		SaturateK: 2,
		MaxSeeds:  48,
	}
	ref := RunGPUCampaign(base)
	if ref.SeedsRun == 0 {
		t.Fatal("campaign ran no seeds")
	}

	// Serial reference: the same seeds through the one-shot RunGPUTest
	// path (fresh build per run, no campaign machinery at all).
	serialL1 := coverage.NewMatrix(viper.NewTCPSpec())
	serialL2 := coverage.NewMatrix(viper.NewTCCSpec())
	var serialFailures []SeedFailure
	for i := 0; i < ref.SeedsRun; i++ {
		seed := base.BaseSeed + uint64(i)
		tc := base.TestCfg
		tc.Seed = seed
		r := RunGPUTest(GPUTestConfig{SysCfg: sysCfg, TestCfg: tc})
		serialL1.Merge(r.L1)
		serialL2.Merge(r.L2)
		if len(r.Report.Failures) > 0 {
			serialFailures = append(serialFailures, SeedFailure{Seed: seed, Failures: r.Report.Failures})
		}
	}
	requireMatrixEqual(t, "GPU-L1 union", serialL1, ref.UnionL1)
	requireMatrixEqual(t, "GPU-L2 union", serialL2, ref.UnionL2)
	requireFailuresEqual(t, serialFailures, ref.Failures)

	// Worker-count independence: more workers, identical outcome.
	par := base
	par.Workers = 3
	got := RunGPUCampaign(par)
	if got.SeedsRun != ref.SeedsRun || got.Batches != ref.Batches || got.Saturated != ref.Saturated {
		t.Fatalf("workers=3: seeds/batches/saturated = %d/%d/%v, want %d/%d/%v",
			got.SeedsRun, got.Batches, got.Saturated, ref.SeedsRun, ref.Batches, ref.Saturated)
	}
	for i := range ref.NewCellsByBatch {
		if got.NewCellsByBatch[i] != ref.NewCellsByBatch[i] {
			t.Fatalf("workers=3: batch %d activated %d new cells, want %d",
				i, got.NewCellsByBatch[i], ref.NewCellsByBatch[i])
		}
	}
	requireMatrixEqual(t, "GPU-L1 union (workers=3)", ref.UnionL1, got.UnionL1)
	requireMatrixEqual(t, "GPU-L2 union (workers=3)", ref.UnionL2, got.UnionL2)
	requireFailuresEqual(t, ref.Failures, got.Failures)
}

func requireFailuresEqual(t *testing.T, want, got []SeedFailure) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("failure-set size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Seed != got[i].Seed {
			t.Fatalf("failure %d: seed %d, want %d", i, got[i].Seed, want[i].Seed)
		}
		w, err := json.Marshal(want[i].Failures)
		if err != nil {
			t.Fatal(err)
		}
		g, err := json.Marshal(got[i].Failures)
		if err != nil {
			t.Fatal(err)
		}
		if string(w) != string(g) {
			t.Fatalf("seed %d failures differ\nwant: %s\ngot:  %s", want[i].Seed, w, g)
		}
	}
}

// TestCampaignDetectsInjectedBugs: a saturation campaign must flag
// every one of the four injected protocol bugs before it stops — the
// paper's core claim, now phrased as a stopping-rule property.
func TestCampaignDetectsInjectedBugs(t *testing.T) {
	cases := []struct {
		name string
		bugs viper.BugSet
	}{
		{"lostwrite", viper.BugSet{LostWriteRace: true}},
		{"nonatomic", viper.BugSet{NonAtomicRMW: true}},
		{"dropack", viper.BugSet{DropWBAckEvery: 20}},
		{"staleacquire", viper.BugSet{StaleAcquire: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sysCfg := viper.SmallCacheConfig()
			sysCfg.Bugs = tc.bugs
			testCfg := campaignTestCfg()
			if tc.name == "dropack" {
				// The dropped ack manifests as a deadlock; the run must
				// be allowed to stop on it.
				testCfg.KeepGoing = false
			}
			res := RunGPUCampaign(CampaignConfig{
				SysCfg:    sysCfg,
				TestCfg:   testCfg,
				BaseSeed:  1,
				BatchSize: 8,
				SaturateK: 3,
				MaxSeeds:  256,
			})
			if len(res.Failures) == 0 {
				t.Fatalf("campaign ran %d seeds (%d batches, saturated=%v) without detecting the injected bug",
					res.SeedsRun, res.Batches, res.Saturated)
			}
		})
	}
}

// TestCampaignSaturates: on a correct protocol the plateau rule, not
// the seed cap, should end the campaign, with zero failures.
func TestCampaignSaturates(t *testing.T) {
	res := RunGPUCampaign(CampaignConfig{
		SysCfg:    viper.SmallCacheConfig(),
		TestCfg:   campaignTestCfg(),
		BaseSeed:  1,
		BatchSize: 8,
		SaturateK: 3,
		MaxSeeds:  512,
	})
	if !res.Saturated {
		t.Fatalf("campaign hit the %d-seed cap without saturating (last batches: %v)",
			res.SeedsRun, res.NewCellsByBatch)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("correct protocol produced failures: seed %d: %v",
			res.Failures[0].Seed, res.Failures[0].Failures[0])
	}
	if res.UnionL1Sum.Active == 0 || res.UnionL2Sum.Active == 0 {
		t.Fatal("saturated campaign recorded no coverage")
	}
	// The stopping rule's whole point: the union keeps growing for a
	// while, then plateaus. The first batch must activate cells and the
	// last SaturateK must not.
	if res.NewCellsByBatch[0] == 0 {
		t.Fatal("first batch activated no cells")
	}
	for _, n := range res.NewCellsByBatch[len(res.NewCellsByBatch)-3:] {
		if n != 0 {
			t.Fatalf("saturated campaign's trailing batches still activated cells: %v", res.NewCellsByBatch)
		}
	}
}

// TestCampaignReuseCheaperThanRebuild pins the perf claim behind the
// reset paths at the allocation level, where the measurement is exact
// and machine-independent: a steady-state reset-and-run must allocate
// far less than a build-and-run of the same seed.
func TestCampaignReuseCheaperThanRebuild(t *testing.T) {
	sysCfg := viper.SmallCacheConfig()
	testCfg := campaignTestCfg()

	b := BuildGPU(sysCfg)
	tc := testCfg
	tc.Seed = 1
	tester := core.New(b.K, b.Sys, tc)
	tester.Run()
	seed := uint64(2)
	resetAllocs := testing.AllocsPerRun(3, func() {
		b.K.Reset()
		b.Sys.Reset()
		b.Col.Reset()
		tester.Reset(seed)
		tester.Run()
		seed++
	})

	seed = 2
	rebuildAllocs := testing.AllocsPerRun(3, func() {
		nb := BuildGPU(sysCfg)
		ntc := testCfg
		ntc.Seed = seed
		core.New(nb.K, nb.Sys, ntc).Run()
		seed++
	})

	if resetAllocs*2 > rebuildAllocs {
		t.Fatalf("reset-run allocates %.0f objects/run, rebuild-run %.0f — reuse should be at least 2x cheaper",
			resetAllocs, rebuildAllocs)
	}
	t.Logf("allocs/run: reset=%.0f rebuild=%.0f (%.1fx)", resetAllocs, rebuildAllocs, rebuildAllocs/resetAllocs)
}

// TestPlanAheadEqualsNextPlan pins the promise the daemon's run-ahead
// rests on: in uniform and swarm mode the batch PlanAhead names is the
// batch Plan returns after the current one merges — index, seed range,
// the short last batch and the interned corner — whatever the current
// batch yielded; directed mode, whose next corner follows the yield,
// and the last batch plan nothing ahead.
func TestPlanAheadEqualsNextPlan(t *testing.T) {
	for _, mode := range []CampaignMode{CampaignUniform, CampaignSwarm, CampaignDirected} {
		st := NewCampaignState(CampaignConfig{
			SysCfg:    viper.SmallCacheConfig(),
			TestCfg:   campaignTestCfg(),
			Mode:      mode,
			BaseSeed:  7,
			BatchSize: 8,
			MaxSeeds:  60, // not a multiple of the batch: the last batch is short
		})
		batches := 0
		for !st.Done() {
			ahead, ok := st.PlanAhead()
			if mode == CampaignDirected && ok {
				t.Fatalf("%s: PlanAhead planned batch %d", mode, ahead.Index)
			}
			st.Apply(nil)
			batches++
			next, more := st.Plan()
			if ok != (more && mode != CampaignDirected) {
				t.Fatalf("%s batch %d: PlanAhead ok=%v, next Plan ok=%v", mode, batches, ok, more)
			}
			if ok && ahead != next {
				t.Fatalf("%s: PlanAhead %+v, next Plan %+v", mode, ahead, next)
			}
		}
		if batches != 8 {
			t.Errorf("%s: %d batches, want 8", mode, batches)
		}
	}
}

// TestCampaignRunUntraced pins that a campaign's run context stays
// untraced when artifacts are requested, on the reset path and the
// fork path alike: no seed pays for a trace ring, and a failing seed's
// artifact still carries a trace, TraceDepth entries deep, recorded by
// its capture's replay.
func TestCampaignRunUntraced(t *testing.T) {
	sys, tc := BugHuntConfigs(viper.BugSet{LostWriteRace: true}, 1)
	base := NewCornerCache(tc, sys).Corner(CornerLevels{})
	for _, fork := range []bool{false, true} {
		cfg := CampaignConfig{SysCfg: sys, TestCfg: tc, Workers: 1, Fork: fork,
			ArtifactDir: t.TempDir(), CaptureArtifacts: true, TraceDepth: 256}
		rc := NewRunContext(cfg)
		const seeds = 4
		for seed := uint64(1); seed <= seeds; seed++ {
			rc.RunSeed(seed, base)
			if rc.run.Ring != nil || rc.run.K.Tracer() != nil {
				t.Fatalf("fork=%v seed %d: the campaign's run is traced", fork, seed)
			}
		}
		d := rc.Delta()
		if len(d.Failures) == 0 {
			t.Fatalf("fork=%v: none of %d seeds failed", fork, seeds)
		}
		for _, sf := range d.Failures {
			if sf.ArtifactErr != "" || sf.ArtifactPath == "" {
				t.Fatalf("fork=%v seed %d: no artifact written (error %q)", fork, sf.Seed, sf.ArtifactErr)
			}
			art, err := LoadArtifactBytes("inline", sf.Artifact)
			if err != nil {
				t.Fatalf("fork=%v seed %d: %v", fork, sf.Seed, err)
			}
			if art.TraceCapacity != cfg.TraceDepth || len(art.Trace) == 0 {
				t.Fatalf("fork=%v seed %d: artifact trace capacity %d with %d entries, want %d and a non-empty tail",
					fork, sf.Seed, art.TraceCapacity, len(art.Trace), cfg.TraceDepth)
			}
		}
	}
}
