package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyHistogram(t *testing.T) {
	h := NewHistogram("empty")
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	if !strings.Contains(h.String(), "no samples") {
		t.Fatal("empty histogram string wrong")
	}
}

func TestBasicStats(t *testing.T) {
	h := NewHistogram("lat")
	for _, v := range []uint64{1, 2, 3, 4, 10} {
		h.Record(v)
	}
	if h.Count() != 5 || h.Sum() != 20 || h.Min() != 1 || h.Max() != 10 {
		t.Fatalf("stats wrong: %s", h)
	}
	if h.Mean() != 4 {
		t.Fatalf("mean %v", h.Mean())
	}
}

func TestPercentileBounds(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram("q")
		var max uint64
		for _, v := range raw {
			h.Record(uint64(v))
			if uint64(v) > max {
				max = uint64(v)
			}
		}
		p50 := h.Percentile(0.5)
		p99 := h.Percentile(0.99)
		// Percentiles are bucket upper bounds: monotone and ≥ min,
		// and p100-ish never exceeds ~2x max (bucket granularity).
		return p50 <= p99 && p99 <= 2*max+1 && h.Percentile(1.0) >= h.Min()
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewHistogram("a"), NewHistogram("b")
	a.Record(5)
	b.Record(100)
	b.Record(1)
	a.Merge(b)
	if a.Count() != 3 || a.Min() != 1 || a.Max() != 100 || a.Sum() != 106 {
		t.Fatalf("merge wrong: %s", a)
	}
}

func TestRender(t *testing.T) {
	h := NewHistogram("r")
	for i := uint64(1); i <= 100; i++ {
		h.Record(i)
	}
	var b strings.Builder
	h.Render(&b)
	out := b.String()
	if !strings.Contains(out, "#") || !strings.Contains(out, "n=100") {
		t.Fatalf("render output:\n%s", out)
	}
}

func TestLatencySet(t *testing.T) {
	s := NewLatencySet("cu0")
	s.Load.Record(10)
	s.Release.Record(500)
	agg := NewLatencySet("gpu")
	agg.Merge(s)
	if agg.Load.Count() != 1 || agg.Release.Count() != 1 {
		t.Fatal("latency set merge lost samples")
	}
	if len(agg.All()) != 5 {
		t.Fatal("All() wrong length")
	}
}

// TestLatencySetSnapshotRestore checks the prefix copies against whole
// histograms: a cut refilled over a dirtier one, restored after larger
// samples pushed the live tops up, gives back exactly the captured
// buckets and sums, and an empty cut empties the set.
func TestLatencySetSnapshotRestore(t *testing.T) {
	s := NewLatencySet("t")
	for _, v := range []uint64{1 << 40, 3, 1 << 62} {
		s.Load.Record(v)
		s.Release.Record(v)
	}
	empty := NewLatencySet("e").Snapshot()
	snap := s.Snapshot() // filled up to bucket 63, then refilled lower
	s.Reset()
	for _, v := range []uint64{0, 5, 9, 200} {
		s.Load.Record(v)
		s.Atomic.Record(v)
	}
	s.SnapshotInto(snap)
	want := [5]Histogram{}
	for i, h := range s.All() {
		want[i] = *h
	}
	s.Load.Record(1 << 50)
	s.Acquire.Record(1 << 33)
	s.Restore(snap)
	for i, h := range s.All() {
		if *h != want[i] {
			t.Fatalf("%s restored to %+v, want %+v", h.Name, *h, want[i])
		}
	}
	s.Restore(empty)
	for _, h := range s.All() {
		if *h != *NewHistogram(h.Name) {
			t.Fatalf("%s restored from an empty cut to %+v", h.Name, *h)
		}
	}
}

// TestLatencySetRestoreTouchesFilledBuckets pins what a restore costs:
// only the buckets up to the higher of the two tops. A marker planted
// in a bucket above both survives the restore, which therefore never
// walked the histogram's 65 buckets.
func TestLatencySetRestoreTouchesFilledBuckets(t *testing.T) {
	s := NewLatencySet("t")
	s.Store.Record(6)
	snap := s.Snapshot()
	s.Store.Record(100)
	s.Store.buckets[60] = 0xbad
	s.Restore(snap)
	if s.Store.buckets[bucketOf(100)] != 0 || s.Store.count != 1 {
		t.Fatalf("restore kept the post-cut sample: %+v", *s.Store)
	}
	if s.Store.buckets[60] != 0xbad {
		t.Fatal("restore walked buckets above both tops")
	}
}
