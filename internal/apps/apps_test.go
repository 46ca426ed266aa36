package apps

import (
	"testing"

	"drftest/internal/audit"
	"drftest/internal/coverage"
	"drftest/internal/mem"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

func TestProfilesWellFormed(t *testing.T) {
	if len(Profiles) != 26 {
		t.Fatalf("expected 26 application profiles (Table IV), got %d", len(Profiles))
	}
	seen := map[string]bool{}
	for _, p := range Profiles {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		sum := p.Streaming + p.IntraWF + p.InterWF + p.MixWF
		if sum < 0.95 || sum > 1.05 {
			t.Errorf("%s: locality mix sums to %.2f", p.Name, sum)
		}
		if p.MemOpsPerLane <= 0 || p.ALUPerMem <= 0 {
			t.Errorf("%s: non-positive lengths", p.Name)
		}
	}
}

func TestAppRunCompletes(t *testing.T) {
	k := sim.NewKernel()
	col := coverage.NewCollector(viper.NewTCPSpec(), viper.NewTCCSpec())
	sys := viper.NewSystem(k, viper.DefaultConfig(), col)
	prof := *ByName("Square")
	prof.MemOpsPerLane = 60
	res := Run(k, sys, prof, 7, 8, 4, 0)
	if !res.Completed {
		t.Fatal("application did not complete")
	}
	if res.Faults != 0 {
		t.Fatalf("protocol faults during app run: %d", res.Faults)
	}
	if res.MemOps == 0 || res.Instructions <= res.MemOps {
		t.Fatalf("implausible instruction counts: instr=%d mem=%d", res.Instructions, res.MemOps)
	}
	if res.Locality[ClassStreaming] < 0.5 {
		t.Errorf("Square should be streaming-dominated, got %v", res.Locality)
	}
}

// TestLocalityMatchesProfiles checks the generated traces actually
// exhibit the reuse classes their profiles promise (the Fig. 6
// correspondence).
func TestLocalityMatchesProfiles(t *testing.T) {
	cases := []struct {
		name  string
		class LocalityClass
		min   float64
	}{
		{"Square", ClassStreaming, 0.6},
		{"DNNMark_Pool", ClassStreaming, 0.3},
		{"MatMul", ClassIntraWF, 0.2},
		{"DCT", ClassIntraWF, 0.2},
		{"BinarySearch", ClassInterWF, 0.15},
		{"FloydWarshall", ClassInterWF, 0.1},
		{"CM", ClassMixWF, 0.3},
		{"Interac", ClassMixWF, 0.3},
		{"SpinMutex", ClassMixWF, 0.2},
	}
	for _, tc := range cases {
		k := sim.NewKernel()
		sys := viper.NewSystem(k, viper.DefaultConfig(), nil)
		prof := *ByName(tc.name)
		prof.MemOpsPerLane = 100
		res := Run(k, sys, prof, 11, 8, 4, 0)
		if !res.Completed {
			t.Fatalf("%s did not complete", tc.name)
		}
		if res.Locality[tc.class] < tc.min {
			t.Errorf("%s: %s fraction %.2f < %.2f (full breakdown %v)",
				tc.name, tc.class, res.Locality[tc.class], tc.min, res.Locality)
		}
	}
}

func TestLocalityTrackerClassification(t *testing.T) {
	tr := NewLocalityTracker(64)
	tr.Access(0, 0x000) // streaming: single touch
	tr.Access(0, 0x040) // intra: two touches, one WF
	tr.Access(0, 0x044)
	tr.Access(0, 0x080) // inter: two WFs, once each
	tr.Access(1, 0x084)
	tr.Access(0, 0x0C0) // mix: two WFs, one reuses
	tr.Access(0, 0x0C4)
	tr.Access(1, 0x0C8)
	b := tr.Breakdown()
	for i, want := range []float64{0.25, 0.25, 0.25, 0.25} {
		if b[i] != want {
			t.Fatalf("breakdown[%d] = %v, want %v (all: %v)", i, b[i], want, b)
		}
	}
}

// TestLocalityTrackerWideWavefronts covers the spill path: wavefront
// IDs beyond the bitmask width classify exactly like narrow ones.
func TestLocalityTrackerWideWavefronts(t *testing.T) {
	tr := NewLocalityTracker(64)
	tr.Access(200, 0x000) // streaming
	tr.Access(200, 0x040) // intra: one wide WF, twice
	tr.Access(200, 0x044)
	tr.Access(0, 0x080) // inter: narrow + wide, once each
	tr.Access(300, 0x084)
	tr.Access(150, 0x0C0) // mix: wide WF reuses, another touches
	tr.Access(150, 0x0C4)
	tr.Access(1, 0x0C8)
	b := tr.Breakdown()
	for i, want := range []float64{0.25, 0.25, 0.25, 0.25} {
		if b[i] != want {
			t.Fatalf("breakdown[%d] = %v, want %v (all: %v)", i, b[i], want, b)
		}
	}
}

// TestLocalityTrackerSteadyStateAllocs pins the value-type line
// records: re-touching known lines allocates nothing (the old tracker
// carried a per-line map and allocated on every access).
func TestLocalityTrackerSteadyStateAllocs(t *testing.T) {
	tr := NewLocalityTracker(64)
	round := func() {
		for wf := 0; wf < 8; wf++ {
			for a := mem.Addr(0); a < 0x400; a += 0x20 {
				tr.Access(wf, a)
			}
		}
	}
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("steady-state tracker access allocates %.1f objects, want 0", n)
	}
}

// TestNoMaps pins that the locality tracker, which sees every access
// of an application run, holds no Go map (see audit.NoMaps).
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, LocalityTracker{})
}
