package explore

import (
	"bytes"
	"testing"

	"drftest/internal/harness"
	"drftest/internal/sim"
	"drftest/internal/trace"
	"drftest/internal/viper"
)

// snapChooser is a FIFO chooser that exposes the explorer's access
// pattern for testing: it counts Choose calls and takes a full-cut
// snapshot from inside Choose (before the decision fires) whenever the
// call counter hits a requested point — exactly how engine.Choose
// snapshots branching decision points.
type snapChooser struct {
	r     *run
	calls int
	at    map[int]*harness.Checkpoint
}

func (c *snapChooser) Choose(now sim.Tick, cands []sim.Enabled) int {
	c.calls++
	if c.at != nil {
		if _, want := c.at[c.calls]; want {
			c.at[c.calls] = c.r.snapshot()
		}
	}
	return 0
}

// tracedRun is newRun with the trace ring on — the explorer's own run
// is untraced — so the witness below covers the ring's cut too.
func tracedRun(cfg *Config) *run {
	r := newRun(cfg)
	r.Ring = trace.NewRing(harness.DefaultTraceCapacity)
	r.K.SetTracer(r.Ring)
	return r
}

// fingerprint runs the current schedule to completion and returns the
// full replay artifact serialized — ops, final RNG state, failures and
// the complete trace tail — as the bit-identity witness.
func fingerprint(t *testing.T, sys viper.Config, r *run) []byte {
	t.Helper()
	r.K.RunUntilIdle()
	r.Tester.Finish()
	rep := r.Tester.Report()
	art := harness.NewGPUArtifact(sys, r.testCfg, r.Tester, rep, r.Ring)
	data, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotForkRewindRefork is the explorer's correctness bedrock:
// snapshots taken at arbitrary decision points mid-run must restore
// bit-identically under repeated fork/rewind/refork, including nested
// restores (inner point, then an outer point that predates it, then a
// re-taken inner point). The witness is the serialized replay artifact
// of the completed run.
func TestSnapshotForkRewindRefork(t *testing.T) {
	const outer, inner = 40, 90

	cfg := Config{SysCfg: exploreBigSetsSys(), TestCfg: exploreWideCfg(7)}
	r := tracedRun(&cfg)
	ch := &snapChooser{r: r, at: map[int]*harness.Checkpoint{outer: nil, inner: nil}}
	r.K.SetChooser(ch)

	r.Tester.Start()
	want := fingerprint(t, cfg.SysCfg, r)
	cutOuter, cutInner := ch.at[outer], ch.at[inner]
	if cutOuter == nil || cutInner == nil {
		t.Fatalf("run too short: %d Choose calls, need %d", ch.calls, inner)
	}
	ch.at = nil

	// Rewind to the inner point and re-run: bit-identical.
	r.Restore(cutInner)
	if got := fingerprint(t, cfg.SysCfg, r); !bytes.Equal(got, want) {
		t.Fatal("restore(inner) diverged from original run")
	}

	// Repeatedly rewind to the outer point, re-take the inner snapshot
	// en route (refork), finish, then rewind to the re-taken inner cut
	// and finish again — every completion must match the original.
	for round := 0; round < 3; round++ {
		r.Restore(cutOuter)
		ch.calls = outer
		ch.at = map[int]*harness.Checkpoint{inner: nil}
		if got := fingerprint(t, cfg.SysCfg, r); !bytes.Equal(got, want) {
			t.Fatalf("round %d: restore(outer) diverged from original run", round)
		}
		refork := ch.at[inner]
		if refork == nil {
			t.Fatalf("round %d: inner point not reached after outer restore", round)
		}
		ch.at = nil

		r.Restore(refork)
		if got := fingerprint(t, cfg.SysCfg, r); !bytes.Equal(got, want) {
			t.Fatalf("round %d: restore(reforked inner) diverged from original run", round)
		}
	}
}
