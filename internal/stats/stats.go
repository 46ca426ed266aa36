// Package stats provides the lightweight performance instrumentation a
// cycle-level memory-system model needs: power-of-two-bucketed latency
// histograms with exact count/sum/min/max and approximate percentiles.
//
// The testers use these to characterize runs (and to show the latency
// cost of synchronization operations versus plain accesses); they are
// also the building block for performance-projection studies, the
// other half of what platforms like gem5 are for.
package stats

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// Histogram accumulates uint64 samples into log2 buckets: bucket i
// holds samples in [2^(i-1), 2^i) with bucket 0 holding zero.
type Histogram struct {
	Name    string
	buckets [65]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// NewHistogram creates an empty named histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{Name: name, min: ^uint64(0)}
}

func bucketOf(v uint64) int {
	return bits.Len64(v)
}

// Record adds one sample.
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the total of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns an upper bound on the p-quantile (0 < p ≤ 1) at
// bucket resolution: the upper edge of the bucket containing it.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(p * float64(h.count))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= target {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return h.max
}

// top is the index of the highest bucket a sample can be in: every
// sample is at most max.
func (h *Histogram) top() int { return bucketOf(h.max) }

// copySamples sets h's samples to src's, reading src's buckets up to
// its top and clearing h's between the two tops. It touches nothing
// above the higher top, so a live histogram, whose buckets above its
// top are zero, keeps them zero.
func (h *Histogram) copySamples(src *Histogram) {
	n := src.top() + 1
	copy(h.buckets[:n], src.buckets[:n])
	if t := h.top(); t >= n {
		clear(h.buckets[n : t+1])
	}
	h.count, h.sum, h.min, h.max = src.count, src.sum, src.min, src.max
}

// Reset discards all samples, as if freshly constructed.
func (h *Histogram) Reset() {
	clear(h.buckets[:])
	h.count, h.sum, h.max = 0, 0, 0
	h.min = ^uint64(0)
}

// Merge adds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// String summarizes the histogram in one line.
func (h *Histogram) String() string {
	if h.count == 0 {
		return fmt.Sprintf("%s: no samples", h.Name)
	}
	return fmt.Sprintf("%s: n=%d mean=%.1f min=%d p50≤%d p99≤%d max=%d",
		h.Name, h.count, h.Mean(), h.Min(), h.Percentile(0.5), h.Percentile(0.99), h.max)
}

// Render writes an ASCII bar chart of the non-empty buckets.
func (h *Histogram) Render(w io.Writer) {
	fmt.Fprintln(w, h.String())
	if h.count == 0 {
		return
	}
	var peak uint64
	for _, n := range h.buckets {
		if n > peak {
			peak = n
		}
	}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		lo, hi := uint64(0), uint64(0)
		if i > 0 {
			lo = 1 << uint(i-1)
			hi = 1<<uint(i) - 1
		}
		bar := int(float64(n) / float64(peak) * 40)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(w, "  [%8d, %8d] %8d %s\n", lo, hi, n, strings.Repeat("#", bar))
	}
}

// LatencySet groups the per-operation-class latency histograms a
// sequencer maintains.
type LatencySet struct {
	Load    *Histogram
	Store   *Histogram
	Atomic  *Histogram
	Acquire *Histogram
	Release *Histogram
}

// NewLatencySet creates the five histograms with prefixed names.
func NewLatencySet(prefix string) *LatencySet {
	return &LatencySet{
		Load:    NewHistogram(prefix + ".load"),
		Store:   NewHistogram(prefix + ".store"),
		Atomic:  NewHistogram(prefix + ".atomic"),
		Acquire: NewHistogram(prefix + ".acquire"),
		Release: NewHistogram(prefix + ".release"),
	}
}

// Merge accumulates other into s.
func (s *LatencySet) Merge(other *LatencySet) {
	s.Load.Merge(other.Load)
	s.Store.Merge(other.Store)
	s.Atomic.Merge(other.Atomic)
	s.Acquire.Merge(other.Acquire)
	s.Release.Merge(other.Release)
}

// Reset discards the samples of every histogram in the set.
func (s *LatencySet) Reset() {
	for _, h := range s.All() {
		h.Reset()
	}
}

// All returns the histograms in display order.
func (s *LatencySet) All() []*Histogram {
	return []*Histogram{s.Load, s.Store, s.Atomic, s.Acquire, s.Release}
}

// LatencySetSnapshot captures the samples of all five histograms of a
// LatencySet (names are configuration and are not captured). A
// histogram's buckets above its top hold whatever an earlier fill left
// there and are never read.
type LatencySetSnapshot struct {
	hists [5]Histogram
}

// Snapshot captures every histogram in the set.
func (s *LatencySet) Snapshot() *LatencySetSnapshot { return s.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling snap, a snapshot the caller knows
// is dead (nil allocates).
func (s *LatencySet) SnapshotInto(snap *LatencySetSnapshot) *LatencySetSnapshot {
	if snap == nil {
		snap = &LatencySetSnapshot{}
	}
	for i, h := range s.All() {
		snap.hists[i].copySamples(h)
	}
	return snap
}

// Restore returns every histogram in the set to the captured samples.
func (s *LatencySet) Restore(snap *LatencySetSnapshot) {
	for i, h := range s.All() {
		h.copySamples(&snap.hists[i])
	}
}
