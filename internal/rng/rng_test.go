package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(12345, 7)
	b := New(12345, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := New(12345, 1)
	b := New(12345, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 coincide on %d of 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	p := New(9, 9)
	c1 := p.Split()
	c2 := p.Split()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("consecutive splits produce identical streams")
	}
}

func TestIntnBounds(t *testing.T) {
	p := New(1, 1)
	err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := p.Intn(n)
		return v >= 0 && v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 1).Intn(0)
}

func TestRangeInclusive(t *testing.T) {
	p := New(3, 3)
	seenLo, seenHi := false, false
	for i := 0; i < 1000; i++ {
		v := p.Range(5, 7)
		if v < 5 || v > 7 {
			t.Fatalf("Range(5,7) returned %d", v)
		}
		seenLo = seenLo || v == 5
		seenHi = seenHi || v == 7
	}
	if !seenLo || !seenHi {
		t.Fatal("Range never produced an endpoint in 1000 draws")
	}
}

func TestFloat64Unit(t *testing.T) {
	p := New(4, 4)
	for i := 0; i < 10_000; i++ {
		f := p.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestUniformity(t *testing.T) {
	p := New(5, 5)
	const buckets, draws = 16, 160_000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[p.Intn(buckets)]++
	}
	expect := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > 0.05*expect {
			t.Errorf("bucket %d: %d draws, expected ~%.0f", b, c, expect)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(6, 6)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw % 64)
		perm := p.Perm(n)
		if len(perm) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWeightedChoiceRespectsZeros(t *testing.T) {
	p := New(7, 7)
	w := []float64{0, 3, 0, 1}
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		counts[p.WeightedChoice(w)]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight entries chosen: %v", counts)
	}
	ratio := float64(counts[1]) / float64(counts[3])
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("3:1 weights produced ratio %.2f (%v)", ratio, counts)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	p := New(8, 8)
	for _, w := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WeightedChoice(%v) did not panic", w)
				}
			}()
			p.WeightedChoice(w)
		}()
	}
}

func TestBoolProbability(t *testing.T) {
	p := New(9, 1)
	hits := 0
	for i := 0; i < 100_000; i++ {
		if p.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / 100_000
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) fired %.3f of the time", frac)
	}
}

// skipMatchesSteps reports whether Skip(n) leaves a generator seeded
// (seed, seq) exactly where n Uint32 draws do.
func skipMatchesSteps(seed, seq, n uint64) bool {
	stepped, skipped := New(seed, seq), New(seed, seq)
	for i := uint64(0); i < n; i++ {
		stepped.Uint32()
	}
	skipped.Skip(n)
	return *stepped == *skipped && stepped.Uint64() == skipped.Uint64()
}

// TestSkipEqualsSteps pins the jump-ahead the episode generator relies
// on: skipping n steps is indistinguishable from drawing them, at the
// bit boundaries of the square-and-multiply loop and at a length no
// test would draw by accident.
func TestSkipEqualsSteps(t *testing.T) {
	seeds := New(0x5149, 1)
	for _, n := range []uint64{0, 1, 2, 3, 127, 128, 129, 1_000_000} {
		for i := 0; i < 8; i++ {
			if seed, seq := seeds.Uint64(), seeds.Uint64(); !skipMatchesSteps(seed, seq, n) {
				t.Fatalf("Skip(%d) from New(%#x, %#x) differs from %d Uint32 steps", n, seed, seq, n)
			}
		}
	}
}

// TestIntnConsumesTwoSteps pins the stride the generator's skip is
// computed from: one Intn is one Uint64 is two steps, for any n.
func TestIntnConsumesTwoSteps(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 4096, math.MaxInt} {
		drawn, skipped := New(7, uint64(n)), New(7, uint64(n))
		drawn.Intn(n)
		skipped.Skip(2)
		if *drawn != *skipped {
			t.Fatalf("Intn(%d) did not advance the stream by exactly two steps", n)
		}
	}
}

func FuzzSkip(f *testing.F) {
	f.Add(uint64(1), uint64(0xD2F), uint16(128))
	f.Add(uint64(0), uint64(0), uint16(0))
	f.Add(^uint64(0), ^uint64(0), ^uint16(0))
	f.Fuzz(func(t *testing.T, seed, seq uint64, n uint16) {
		if !skipMatchesSteps(seed, seq, uint64(n)) {
			t.Fatalf("Skip(%d) from New(%#x, %#x) differs from %d Uint32 steps", n, seed, seq, n)
		}
	})
}
