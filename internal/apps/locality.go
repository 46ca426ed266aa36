package apps

import (
	"math/bits"

	"drftest/internal/mem"
	"drftest/internal/table"
)

// LocalityClass is Koo et al.'s cache-line reuse classification used
// by the paper's Fig. 6.
type LocalityClass uint8

const (
	// ClassStreaming lines are never reused.
	ClassStreaming LocalityClass = iota
	// ClassIntraWF lines are reused only within one wavefront.
	ClassIntraWF
	// ClassInterWF lines are used by several wavefronts, once each.
	ClassInterWF
	// ClassMixWF lines see both intra- and inter-wavefront reuse.
	ClassMixWF
)

func (c LocalityClass) String() string {
	switch c {
	case ClassStreaming:
		return "streaming"
	case ClassIntraWF:
		return "intraWF"
	case ClassInterWF:
		return "interWF"
	case ClassMixWF:
		return "mixWF"
	}
	return "?"
}

// lineUse folds one line's access history into exactly what classify
// needs: the total, which wavefronts touched it, and which touched it
// more than once. Wavefront sets are bitmasks (apps run tens of
// wavefronts, not thousands), so the tracker stores plain values — no
// per-line pointer or per-line table — and the record stays
// classifiable without replaying counts. Wavefronts beyond the mask
// width spill into a table of counts allocated only if such a wavefront
// ever appears.
type lineUse struct {
	total  int32
	seen   [2]uint64 // wavefronts 0..127 that touched the line
	repeat [2]uint64 // of those, the ones that touched it more than once
	spill  *table.Table[int, int32]
}

func (u *lineUse) record(wf int) {
	u.total++
	if wf < 128 {
		w, bit := wf>>6, uint64(1)<<(wf&63)
		if u.seen[w]&bit != 0 {
			u.repeat[w] |= bit
		}
		u.seen[w] |= bit
		return
	}
	if u.spill == nil {
		u.spill = new(table.Table[int, int32])
	}
	*u.spill.Slot(wf)++
}

// LocalityTracker profiles cache-line usage across wavefronts.
type LocalityTracker struct {
	lineSize int
	lines    table.Table[mem.Addr, lineUse]
}

// NewLocalityTracker creates a tracker for the given line size.
func NewLocalityTracker(lineSize int) *LocalityTracker {
	return &LocalityTracker{lineSize: lineSize}
}

// Access records that wavefront wf touched addr.
func (t *LocalityTracker) Access(wf int, addr mem.Addr) {
	t.lines.Slot(mem.LineAddr(addr, t.lineSize)).record(wf)
}

// classify buckets one line.
func (u *lineUse) classify() LocalityClass {
	if u.total == 1 {
		return ClassStreaming
	}
	distinct := bits.OnesCount64(u.seen[0]) + bits.OnesCount64(u.seen[1])
	class := ClassInterWF
	if u.repeat[0] != 0 || u.repeat[1] != 0 {
		class = ClassMixWF
	}
	if u.spill != nil {
		distinct += u.spill.Len()
		u.spill.Each(func(_ int, n *int32) {
			if *n > 1 {
				class = ClassMixWF
			}
		})
	}
	if distinct == 1 {
		return ClassIntraWF
	}
	return class
}

// Breakdown returns the fraction of lines in each class, indexed by
// LocalityClass (Fig. 6's stacked bars).
func (t *LocalityTracker) Breakdown() [4]float64 {
	var counts [4]int
	t.lines.Each(func(_ mem.Addr, u *lineUse) { counts[u.classify()]++ })
	var out [4]float64
	if t.lines.Len() == 0 {
		return out
	}
	for i, n := range counts {
		out[i] = float64(n) / float64(t.lines.Len())
	}
	return out
}

// BreakdownByAccess returns the fraction of line *uses* falling in
// each class — each line weighted by how often it was touched. This is
// the view that characterizes an application's traffic (a handful of
// hot shared lines can dominate a kernel that also streams through
// thousands of cold ones) and is what our Fig. 6 reproduction reports.
func (t *LocalityTracker) BreakdownByAccess() [4]float64 {
	var counts [4]int
	total := 0
	t.lines.Each(func(_ mem.Addr, u *lineUse) {
		counts[u.classify()] += int(u.total)
		total += int(u.total)
	})
	var out [4]float64
	if total == 0 {
		return out
	}
	for i, n := range counts {
		out[i] = float64(n) / float64(total)
	}
	return out
}

// Lines returns the number of distinct lines touched.
func (t *LocalityTracker) Lines() int { return t.lines.Len() }
