package campaignd

import (
	"reflect"
	"testing"

	"drftest/internal/coverage"
	"drftest/internal/harness"
	"drftest/internal/viper"
)

// TestSparseRoundTrip: a matrix's sparse encoding folds back into a
// batch delta cell for cell, folds accumulate, and a result with an
// out-of-range cell in either list is refused before any of its cells
// — valid ones included — reaches the delta.
func TestSparseRoundTrip(t *testing.T) {
	spec := viper.NewTCPSpec()
	m := coverage.NewMatrix(spec)
	m.Hits[0][1] = 3
	m.Hits[2][0] = 1
	last := len(m.Hits) - 1
	m.Hits[last][len(m.Hits[last])-1] = 7

	cells := SparseFromMatrix(m)
	if len(cells) != 3 {
		t.Fatalf("sparse encoding has %d cells, want 3", len(cells))
	}
	d := harness.BatchDelta{L1: coverage.NewMatrix(spec), L2: coverage.NewMatrix(viper.NewTCCSpec())}
	if err := foldResult(&d, &LeaseResult{L1: cells, Seeds: 2}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Hits, d.L1.Hits) || d.Seeds != 2 {
		t.Fatalf("folded delta %v (%d seeds), want %v", d.L1.Hits, d.Seeds, m.Hits)
	}

	// Folds accumulate (union merge is addition on the wire too).
	if err := foldResult(&d, &LeaseResult{L1: cells, Seeds: 2}); err != nil {
		t.Fatal(err)
	}
	if d.L1.Hits[0][1] != 6 || d.Seeds != 4 {
		t.Errorf("double fold: cell %d, %d seeds; want 6, 4", d.L1.Hits[0][1], d.Seeds)
	}

	before := harness.BatchDelta{L1: d.L1.Clone(), L2: d.L2.Clone(), Seeds: d.Seeds}
	outside := func(mm *coverage.Matrix) []SparseCell {
		return []SparseCell{
			{S: -1, E: 0, N: 1},
			{S: len(mm.Hits), E: 0, N: 1},
			{S: 0, E: -1, N: 1},
			{S: 0, E: len(mm.Hits[0]), N: 1},
		}
	}
	var refused []LeaseResult
	for _, bad := range outside(d.L1) {
		refused = append(refused, LeaseResult{L1: []SparseCell{{S: 0, E: 1, N: 1}, bad}, Seeds: 1})
	}
	for _, bad := range outside(d.L2) {
		refused = append(refused, LeaseResult{L1: cells, L2: []SparseCell{{S: 0, E: 0, N: 1}, bad}, Seeds: 1})
	}
	for _, res := range refused {
		if err := foldResult(&d, &res); err == nil {
			t.Errorf("result %+v accepted", res)
		}
		if !reflect.DeepEqual(d, before) {
			t.Fatalf("refused result %+v changed the delta", res)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{}.withDefaults()
	if s.BatchSize != 16 || s.MaxSeeds <= 0 {
		t.Errorf("defaults: %+v", s)
	}
	if s.LeaseSeeds != 4 {
		t.Errorf("LeaseSeeds = %d, want batch/4 = 4", s.LeaseSeeds)
	}
	if s = (Spec{BatchSize: 3}).withDefaults(); s.LeaseSeeds != 1 {
		t.Errorf("small batch LeaseSeeds = %d, want 1", s.LeaseSeeds)
	}
	if s = (Spec{LeaseSeeds: 9}).withDefaults(); s.LeaseSeeds != 9 {
		t.Errorf("explicit LeaseSeeds overridden: %d", s.LeaseSeeds)
	}

	if _, err := (Spec{Mode: "bogus"}).CampaignConfig(); err == nil {
		t.Error("bogus mode accepted")
	}
}
