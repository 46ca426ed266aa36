package campaignd

import (
	"testing"

	"drftest/internal/coverage"
	"drftest/internal/viper"
)

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
	back := coverage.NewMatrix(spec)
	if err := AddSparse(back, cells); err != nil {
		t.Fatal(err)
	}
	for i := range m.Hits {
		for j := range m.Hits[i] {
			if m.Hits[i][j] != back.Hits[i][j] {
				t.Fatalf("cell [%d][%d]: %d vs %d", i, j, m.Hits[i][j], back.Hits[i][j])
			}
		}
	}

	// AddSparse accumulates (union merge is addition on the wire too).
	if err := AddSparse(back, cells); err != nil {
		t.Fatal(err)
	}
	if back.Hits[0][1] != 6 {
		t.Errorf("double add: %d, want 6", back.Hits[0][1])
	}

	// Out-of-range cells are rejected, not written.
	for _, bad := range []SparseCell{
		{S: -1, E: 0, N: 1},
		{S: len(m.Hits), E: 0, N: 1},
		{S: 0, E: len(m.Hits[0]), N: 1},
	} {
		if err := AddSparse(back, []SparseCell{bad}); err == nil {
			t.Errorf("cell %+v accepted", bad)
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
