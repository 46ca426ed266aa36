package core

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"drftest/internal/mem"
	"drftest/internal/rng"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

func TestDeterminism(t *testing.T) {
	run := func() *Report {
		cfg := DefaultConfig()
		cfg.Seed = 99
		cfg.NumWavefronts = 8
		cfg.EpisodesPerThread = 4
		cfg.ActionsPerEpisode = 30
		k := sim.NewKernel()
		sys := viper.NewSystem(k, viper.SmallCacheConfig(), nil)
		return New(k, sys, cfg).Run()
	}
	a, b := run(), run()
	if a.OpsIssued != b.OpsIssued || a.SimTicks != b.SimTicks ||
		a.EventsExecuted != b.EventsExecuted || a.Transactions != b.Transactions {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if !a.Passed() || !b.Passed() {
		t.Fatal("unexpected failures")
	}
}

func TestSeedChangesRun(t *testing.T) {
	run := func(seed uint64) uint64 {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.NumWavefronts = 4
		cfg.EpisodesPerThread = 3
		cfg.ActionsPerEpisode = 20
		k := sim.NewKernel()
		sys := viper.NewSystem(k, viper.SmallCacheConfig(), nil)
		return New(k, sys, cfg).Run().SimTicks
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical timing (suspicious)")
	}
}

// TestEpisodesPerThreadSemantics pins what the renamed field means:
// EpisodesPerThread is per *thread* — a run retires exactly
// NumWavefronts × ThreadsPerWF × EpisodesPerThread episodes and issues
// exactly that many × ActionsPerEpisode operations (the field's old
// name, EpisodesPerWF, wrongly suggested a per-wavefront total).
func TestEpisodesPerThreadSemantics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.NumWavefronts = 5
	cfg.ThreadsPerWF = 3
	cfg.EpisodesPerThread = 4
	cfg.ActionsPerEpisode = 12
	k := sim.NewKernel()
	sys := viper.NewSystem(k, viper.SmallCacheConfig(), nil)
	rep := New(k, sys, cfg).Run()
	if !rep.Passed() {
		t.Fatalf("unexpected failures: %v", rep.Failures)
	}
	wantEpisodes := uint64(5 * 3 * 4)
	if rep.EpisodesRetired != wantEpisodes {
		t.Fatalf("retired %d episodes, want threads×episodes = %d", rep.EpisodesRetired, wantEpisodes)
	}
	wantOps := cfg.TotalActions()
	if wantOps != wantEpisodes*12 {
		t.Fatalf("TotalActions = %d, want %d", wantOps, wantEpisodes*12)
	}
	if rep.OpsIssued != wantOps || rep.OpsCompleted != wantOps {
		t.Fatalf("issued/completed %d/%d ops, want %d", rep.OpsIssued, rep.OpsCompleted, wantOps)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.ThreadsPerWF == 0 || cfg.NumDataVars == 0 || cfg.AtomicDelta == 0 ||
		cfg.DeadlockThreshold == 0 || cfg.AddressRangeBytes == 0 {
		t.Fatalf("withDefaults left zeros: %+v", cfg)
	}
	if got := cfg.TotalActions(); got == 0 {
		t.Fatal("TotalActions zero")
	}
}

// TestConfigValidate: Validate accepts what New builds (the zero
// config, the default, an exactly-fitting range) and names the field of
// what New would panic on or silently reinterpret.
func TestConfigValidate(t *testing.T) {
	fits := Config{NumSyncVars: 4, NumDataVars: 64, AddressRangeBytes: 68 * 4}
	for _, ok := range []Config{{}, DefaultConfig(), fits} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", ok, err)
		}
	}
	tight := fits
	tight.AddressRangeBytes--
	for want, bad := range map[string]Config{
		"AddressRangeBytes 16":  {NumDataVars: 64, AddressRangeBytes: 16},
		"AddressRangeBytes 271": tight,
		"NumSyncVars":           {NumSyncVars: -1},
		"EpisodesPerWF":         {EpisodesPerThread: -3},
	} {
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Validate(%+v) = %v, want an error naming %q", bad, err, want)
		}
	}
}

func TestAddressSpaceProperties(t *testing.T) {
	err := quick.Check(func(seed uint64, nSyncRaw, nDataRaw uint8) bool {
		nSync := int(nSyncRaw%8) + 1
		nData := int(nDataRaw%64) + 1
		rangeBytes := 4 * uint64(nSync+nData) * mem.WordSize
		sp := buildAddressSpace(rng.New(seed, 1), nSync, nData, rangeBytes, 64)
		if len(sp.syncVars) != nSync || len(sp.dataVars) != nData {
			return false
		}
		seen := map[mem.Addr]bool{}
		for _, v := range sp.slab {
			if v.addr%mem.WordSize != 0 || uint64(v.addr) >= rangeBytes || seen[v.addr] {
				return false
			}
			seen[v.addr] = true
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSeenOldTablesSurviveCornerSwitches pins that a sync variable's
// old-value table keeps its grown capacity when a campaign corner
// changes the variable counts (which reallocates the slab, or turns
// sync slots into data slots): a second pass through the same corners
// and seeds grows no table.
func TestSeenOldTablesSurviveCornerSwitches(t *testing.T) {
	base := DefaultConfig()
	base.NumWavefronts, base.EpisodesPerThread, base.ActionsPerEpisode = 8, 8, 30
	base.StoreFraction = 0.6
	corners := []struct{ sync, data int }{{4, 64}, {16, 64}, {1, 64}, {4, 8}, {16, 256}, {1, 256}}
	k := sim.NewKernel()
	sys := viper.NewSystem(k, viper.SmallCacheConfig(), nil)
	tester := New(k, sys, base)
	slots := func(v *variable) int { return reflect.ValueOf(v.seenOld).Elem().FieldByName("slots").Len() }
	grown := 0
	for pass := 1; pass <= 2; pass++ {
		for i, c := range corners {
			cfg := base
			cfg.NumSyncVars, cfg.NumDataVars = c.sync, c.data
			k.Reset()
			sys.Reset()
			tester.ResetWithConfig(uint64(i+1), cfg)
			before := make([]int, len(tester.space.syncVars))
			for j := range tester.space.syncVars {
				before[j] = slots(&tester.space.syncVars[j])
			}
			if rep := tester.Run(); !rep.Passed() {
				t.Fatalf("corner %v failed: %v", c, rep.Failures)
			}
			for j := range tester.space.syncVars {
				if n := slots(&tester.space.syncVars[j]); n != before[j] {
					grown++
					if pass == 2 {
						t.Errorf("corner %v: sync variable %d's table grew from %d to %d slots on the second pass", c, j, before[j], n)
					}
				}
			}
		}
	}
	if grown == 0 {
		t.Fatal("no table grew on the first pass either: the corners test nothing")
	}
}

func TestAddressSpaceTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscribed range accepted")
		}
	}()
	buildAddressSpace(rng.New(1, 1), 10, 10, 16, 64)
}

// TestEpisodeGenerationIsRaceFree is the §III.A invariant as a
// property test: across any interleaving of episode creation and
// retirement, no variable ever has two live writers, or a live writer
// alongside a foreign live reader. The claims are read back from the
// live episodes themselves, and every variable's writer, reader count
// and reader-ID sum must say exactly what they say — a stale claim
// left by a retired episode shows as a disagreement.
func TestEpisodeGenerationIsRaceFree(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.NumWavefronts = 4
		cfg.ActionsPerEpisode = 12
		cfg.NumSyncVars = 3
		cfg.NumDataVars = 64
		k := sim.NewKernel()
		sys := viper.NewSystem(k, viper.SmallCacheConfig(), nil)
		tester := New(k, sys, cfg)

		rnd := rng.New(seed, 77)
		var live []*episode
		for step := 0; step < 200; step++ {
			if len(live) == 0 || rnd.Bool(0.6) {
				live = append(live, freshEpisode(tester))
			} else {
				idx := rnd.Intn(len(live))
				ep := live[idx]
				// Retire claims without the memory-system round trip.
				for _, v := range ep.claimOrder {
					tester.space.release(v, ep.id, held(ep, v))
				}
				live = append(live[:idx], live[idx+1:]...)
			}
			// Invariant check over every variable.
			for i := range tester.space.dataVars {
				v := &tester.space.dataVars[i]
				var writers, readers []uint64
				var sum uint64
				for _, ep := range live {
					if held(ep, v)&claimWrite != 0 {
						writers = append(writers, ep.id)
					}
					if held(ep, v)&claimRead != 0 {
						readers = append(readers, ep.id)
						sum += ep.id
					}
				}
				if len(writers) > 1 {
					return false // two live writers
				}
				if len(writers) == 1 {
					for _, r := range readers {
						if r != writers[0] {
							return false // concurrent reader + writer
						}
					}
				}
				if (len(writers) == 0) != (v.writer == 0) || (len(writers) == 1 && v.writer != writers[0]) {
					return false // stale or missing write claim
				}
				if int(v.readers) != len(readers) || v.readerSum != sum {
					return false // stale or missing read claim
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// held reads the claim kinds ep holds on v out of its claim table.
func held(ep *episode, v *variable) claimKind {
	c, _ := ep.claims.Get(int(v.id))
	return c
}

// TestEpisodeShape: every generated episode is acquire…actions…release
// on one sync variable, with the configured length.
func TestEpisodeShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ActionsPerEpisode = 17
	cfg.NumDataVars = 128
	k := sim.NewKernel()
	sys := viper.NewSystem(k, viper.SmallCacheConfig(), nil)
	tester := New(k, sys, cfg)
	for i := 0; i < 50; i++ {
		ep := freshEpisode(tester)
		if len(ep.ops) != 17 {
			t.Fatalf("episode has %d ops", len(ep.ops))
		}
		if ep.ops[0].kind != opAcquire || ep.ops[0].v != ep.sync {
			t.Fatal("episode must begin with acquire of its sync var")
		}
		if ep.ops[16].kind != opRelease || ep.ops[16].v != ep.sync {
			t.Fatal("episode must end with release of its sync var")
		}
		for _, op := range ep.ops[1:16] {
			if op.kind != opLoad && op.kind != opStore {
				t.Fatal("episode body must be loads/stores")
			}
			if op.v.sync {
				t.Fatal("episode body touched a sync variable (DRF class violation)")
			}
		}
		for _, v := range ep.claimOrder {
			tester.space.release(v, ep.id, held(ep, v))
		}
	}
}

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(4)
	for i := 0; i < 10; i++ {
		l.Append(LogEntry{Tick: uint64(i), Addr: mem.Addr(i % 2)})
	}
	if l.Total() != 10 {
		t.Fatalf("total %d", l.Total())
	}
	recent := l.Recent(10)
	if len(recent) != 4 || recent[0].Tick != 6 || recent[3].Tick != 9 {
		t.Fatalf("ring contents wrong: %+v", recent)
	}
	forAddr := l.ForAddr(1, 10)
	for _, e := range forAddr {
		if e.Addr != 1 {
			t.Fatal("ForAddr filter broken")
		}
	}
	if len(forAddr) != 2 {
		t.Fatalf("ForAddr returned %d entries", len(forAddr))
	}
	if Dump(recent) == "" {
		t.Fatal("Dump empty")
	}
}

func TestFalseSharingCounter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumSyncVars = 16
	cfg.NumDataVars = 256
	cfg.AddressRangeBytes = 2 * (16 + 256) * 4
	k := sim.NewKernel()
	sys := viper.NewSystem(k, viper.SmallCacheConfig(), nil)
	tester := New(k, sys, cfg)
	if tester.FalseSharingLines() == 0 {
		t.Fatal("dense random mapping produced no sync/data false sharing")
	}
}

func TestFailureKindStrings(t *testing.T) {
	kinds := []FailureKind{FailValueMismatch, FailDuplicateAtomic, FailBadAtomicValue,
		FailDeadlock, FailProtocolFault, FailFinalAudit}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad kind string %q", s)
		}
		seen[s] = true
		if failLabels[k] != "fail "+s {
			t.Errorf("trace label of %s is %q", s, failLabels[k])
		}
	}
	if FailureKind(len(failNames)).String() != "FailureKind(6)" {
		t.Error("failure-kind names out of step with the kinds")
	}
}

// TestTraceLabels: the constant trace labels are the strings a traced
// run used to build per op — ring entries and artifacts stay
// byte-identical — and every op kind has all three.
func TestTraceLabels(t *testing.T) {
	if len(opNames) != int(opExtra)+1 {
		t.Fatal("op names out of step with the op kinds")
	}
	for k, name := range opNames {
		if name == "" || issueLabels[k] != "issue "+name || respLabels[k] != "resp "+name {
			t.Errorf("op kind %d: name %q, labels %q / %q", k, name, issueLabels[k], respLabels[k])
		}
	}
}

// TestKeepGoingCollectsMultipleFailures: with KeepGoing the tester
// gathers several failures from one buggy run rather than stopping at
// the first.
func TestKeepGoingCollectsMultipleFailures(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.NumWavefronts = 8
		cfg.EpisodesPerThread = 8
		cfg.ActionsPerEpisode = 30
		cfg.NumSyncVars = 4
		cfg.NumDataVars = 48
		cfg.StoreFraction = 0.6
		cfg.KeepGoing = true
		k := sim.NewKernel()
		sysCfg := viper.SmallCacheConfig()
		sysCfg.Bugs.NonAtomicRMW = true
		sys := viper.NewSystem(k, sysCfg, nil)
		rep := New(k, sys, cfg).Run()
		if len(rep.Failures) > 1 {
			return // collected several, as intended
		}
	}
	t.Fatal("KeepGoing never collected more than one failure across 8 seeds")
}

// TestExtremeContentionDoesNotPanic: when live episodes claim every
// data variable, generation must degrade to legal sync-variable
// atomics instead of failing (regression: this exact configuration
// panicked the generator at high seeds).
func TestExtremeContentionDoesNotPanic(t *testing.T) {
	for seed := uint64(280); seed < 320; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.NumWavefronts = 8
		cfg.ThreadsPerWF = 4
		cfg.EpisodesPerThread = 8
		cfg.ActionsPerEpisode = 30
		cfg.NumSyncVars = 4
		cfg.NumDataVars = 8 // far fewer variables than live claims
		cfg.StoreFraction = 0.6
		k := sim.NewKernel()
		sys := viper.NewSystem(k, viper.SmallCacheConfig(), nil)
		rep := New(k, sys, cfg).Run()
		if !rep.Passed() {
			t.Fatalf("seed %d: false alarm under extreme contention: %v", seed, rep.Failures[0])
		}
		if rep.OpsCompleted != cfg.TotalActions() {
			t.Fatalf("seed %d: ops lost under contention", seed)
		}
	}
}

// freshEpisode generates an episode into storage of its own, as many
// live at once as a test needs.
func freshEpisode(t *Tester) *episode {
	ep := new(episode)
	t.newEpisode(ep)
	return ep
}
