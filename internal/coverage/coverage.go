// Package coverage measures protocol state-transition coverage, the
// paper's central metric: which (state, event) cells of a controller's
// transition table a workload activates, how often, and what fraction
// of the reachable cells that is.
//
// It implements protocol.Recorder, classifies cells into the paper's
// four categories (Undefined / Inactive / Active / Impossible, Fig. 7),
// merges runs into unions (Figs. 8–10), and renders the hit-frequency
// heat maps of Fig. 5 as text.
package coverage

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"drftest/internal/protocol"
)

// Class is a cell's testing classification (paper Fig. 7).
type Class uint8

const (
	// ClassUndef marks cells the protocol declares impossible.
	ClassUndef Class = iota
	// ClassInactive marks defined cells the workload never hit.
	ClassInactive
	// ClassActive marks defined cells the workload activated.
	ClassActive
	// ClassImpossible marks defined cells unreachable for the test type
	// (e.g. L2 PrbInv cells when no CPU shares the directory).
	ClassImpossible
)

func (c Class) String() string {
	switch c {
	case ClassUndef:
		return "Undef"
	case ClassInactive:
		return "Inact"
	case ClassActive:
		return "Active"
	case ClassImpossible:
		return "Impsb"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Matrix is the hit-count matrix of one controller, indexed
// [state][event] to match the Spec.
type Matrix struct {
	Spec *protocol.Spec
	Hits [][]uint64
}

// NewMatrix creates a zeroed matrix for spec.
func NewMatrix(spec *protocol.Spec) *Matrix {
	m := &Matrix{Spec: spec, Hits: make([][]uint64, len(spec.States))}
	for i := range m.Hits {
		m.Hits[i] = make([]uint64, len(spec.Events))
	}
	return m
}

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Spec)
	for i := range m.Hits {
		copy(out.Hits[i], m.Hits[i])
	}
	return out
}

// Zero clears the hit counts in place. The Hits tables themselves are
// retained — machines granted direct counters via protocol.CounterSource
// hold references into them, so reallocating here would silently detach
// every live machine from the collector.
func (m *Matrix) Zero() {
	for i := range m.Hits {
		clear(m.Hits[i])
	}
}

// matrixName names a matrix for diagnostics, tolerating a nil Spec.
func matrixName(m *Matrix) string {
	if m == nil || m.Spec == nil {
		return "<nil spec>"
	}
	return m.Spec.Name
}

// Merge adds other's hits into m (run unions). The specs must describe
// the same table shape; a nil matrix or a shape mismatch panics with a
// message naming both specs rather than an opaque index error.
func (m *Matrix) Merge(other *Matrix) {
	m.MergeCountNew(other)
}

// MergeCountNew merges other into m exactly like Merge and returns the
// number of cells that went from zero to nonzero — the "new
// transitions" a saturation-driven campaign watches for.
func (m *Matrix) MergeCountNew(other *Matrix) int {
	return m.MergeCountNewFunc(other, nil)
}

// MergeCountNewFunc merges exactly like MergeCountNew and additionally
// invokes onNew (when non-nil) for every cell that went from zero to
// nonzero, in row-major [state][event] order. It is the campaign
// engine's per-corner attribution hook: the caller learns *which* cold
// cells a batch bought, not just how many, so a coverage-directed
// policy can credit the configuration corner that activated them.
func (m *Matrix) MergeCountNewFunc(other *Matrix, onNew func(state, event int)) int {
	if m == nil || other == nil {
		panic(fmt.Sprintf("coverage: merging nil matrix (%s into %s)", matrixName(other), matrixName(m)))
	}
	if len(m.Hits) != len(other.Hits) {
		panic(fmt.Sprintf("coverage: merging mismatched matrices: %s has %d states, %s has %d",
			matrixName(m), len(m.Hits), matrixName(other), len(other.Hits)))
	}
	newCells := 0
	for i := range m.Hits {
		if len(m.Hits[i]) != len(other.Hits[i]) {
			panic(fmt.Sprintf("coverage: merging mismatched matrices: %s state %d has %d events, %s has %d",
				matrixName(m), i, len(m.Hits[i]), matrixName(other), len(other.Hits[i])))
		}
		for j := range m.Hits[i] {
			if m.Hits[i][j] == 0 && other.Hits[i][j] != 0 {
				newCells++
				if onNew != nil {
					onNew(i, j)
				}
			}
			m.Hits[i][j] += other.Hits[i][j]
		}
	}
	return newCells
}

// Total returns the total number of recorded transitions.
func (m *Matrix) Total() uint64 {
	var n uint64
	for i := range m.Hits {
		for j := range m.Hits[i] {
			n += m.Hits[i][j]
		}
	}
	return n
}

// CellSet names a set of (state, event) cells, used for the
// per-test-type Impossible masks.
type CellSet map[[2]int]bool

// Add marks (state, event) as a member.
func (s CellSet) Add(state, event int) { s[[2]int{state, event}] = true }

// Has reports membership.
func (s CellSet) Has(state, event int) bool { return s[[2]int{state, event}] }

// Classify assigns every cell its class. impossible may be nil.
func (m *Matrix) Classify(impossible CellSet) [][]Class {
	out := make([][]Class, len(m.Hits))
	for i := range m.Hits {
		out[i] = make([]Class, len(m.Hits[i]))
		for j := range m.Hits[i] {
			cell := m.Spec.Cell(i, j)
			switch {
			case cell.Kind == protocol.Undefined:
				out[i][j] = ClassUndef
			case impossible != nil && impossible.Has(i, j):
				out[i][j] = ClassImpossible
			case m.Hits[i][j] > 0:
				out[i][j] = ClassActive
			default:
				out[i][j] = ClassInactive
			}
		}
	}
	return out
}

// Summary holds a matrix's coverage numbers.
type Summary struct {
	Machine    string
	Defined    int // cells with a defined transition (incl. stalls)
	Impossible int // defined cells unreachable for the test type
	Reachable  int // Defined − Impossible
	Active     int // reachable cells hit at least once
	Hits       uint64
}

// Coverage returns Active/Reachable as a fraction in [0, 1].
func (s Summary) Coverage() float64 {
	if s.Reachable == 0 {
		return 0
	}
	return float64(s.Active) / float64(s.Reachable)
}

func (s Summary) String() string {
	return fmt.Sprintf("%s: %d/%d reachable transitions active (%.1f%%), %d hits",
		s.Machine, s.Active, s.Reachable, 100*s.Coverage(), s.Hits)
}

// Summarize computes coverage with the given Impossible mask.
func (m *Matrix) Summarize(impossible CellSet) Summary {
	s := Summary{Machine: m.Spec.Name}
	classes := m.Classify(impossible)
	for i := range classes {
		for j := range classes[i] {
			switch classes[i][j] {
			case ClassActive:
				s.Active++
				s.Defined++
			case ClassInactive:
				s.Defined++
			case ClassImpossible:
				s.Defined++
				s.Impossible++
			}
			s.Hits += m.Hits[i][j]
		}
	}
	s.Reachable = s.Defined - s.Impossible
	return s
}

// Cell identifies one (state, event) transition cell of a matrix.
type Cell struct {
	State, Event int
}

// ColdCells returns the reachable-but-unhit cells — defined, not
// masked impossible, hit count zero — in deterministic row-major
// [state][event] order. It is the typed companion of InactiveCells: a
// coverage-directed campaign queries it at batch boundaries to learn
// which cells are still worth chasing, and because the order is fixed
// the query is safe to use inside determinism-sensitive policy code.
func (m *Matrix) ColdCells(impossible CellSet) []Cell {
	var out []Cell
	classes := m.Classify(impossible)
	for i := range classes {
		for j := range classes[i] {
			if classes[i][j] == ClassInactive {
				out = append(out, Cell{State: i, Event: j})
			}
		}
	}
	return out
}

// CellName renders a cell as "[State, Event]" using the spec's names.
func (m *Matrix) CellName(c Cell) string {
	return fmt.Sprintf("[%s, %s]", m.Spec.States[c.State], m.Spec.Events[c.Event])
}

// InactiveCells lists the reachable-but-unhit cells as "[State, Event]"
// strings, the debugging view designers use to aim new test configs.
func (m *Matrix) InactiveCells(impossible CellSet) []string {
	cold := m.ColdCells(impossible)
	out := make([]string, 0, len(cold))
	for _, c := range cold {
		out = append(out, m.CellName(c))
	}
	sort.Strings(out)
	return out
}

// Collector implements protocol.Recorder over any number of machines.
// Machines that share a spec name (e.g. every CU's "GPU-L1") aggregate
// into one matrix, matching how the paper reports per-level coverage.
type Collector struct {
	matrices map[string]*Matrix
	order    []*Matrix // registration order; what reset and cuts walk
}

// NewCollector registers the given specs ahead of time so empty
// matrices exist even for machines the workload never touches.
func NewCollector(specs ...*protocol.Spec) *Collector {
	c := &Collector{matrices: make(map[string]*Matrix)}
	for _, s := range specs {
		c.register(s)
	}
	return c
}

func (c *Collector) register(spec *protocol.Spec) *Matrix {
	if m, ok := c.matrices[spec.Name]; ok {
		return m
	}
	m := NewMatrix(spec)
	c.matrices[spec.Name] = m
	c.order = append(c.order, m)
	return m
}

// Record implements protocol.Recorder. Recording for an unregistered
// machine panics: it means the harness forgot a spec, which would
// silently corrupt coverage numbers.
func (c *Collector) Record(machine string, state, event int, _ protocol.Kind) {
	m, ok := c.matrices[machine]
	if !ok {
		panic(fmt.Sprintf("coverage: record for unregistered machine %q", machine))
	}
	m.Hits[state][event]++
}

// Counters implements protocol.CounterSource: a machine whose spec is
// registered gets direct access to its aggregate hit matrix, turning
// per-transition recording into a slice-index increment with no map
// lookup. Machines sharing a spec name still aggregate into one
// matrix, because they receive the same Hits table. Unregistered
// specs decline the fast path (nil, nil), so such machines fall back
// to Record and keep its loud unregistered-machine panic.
func (c *Collector) Counters(spec *protocol.Spec) ([][]uint64, protocol.Recorder) {
	if m, ok := c.matrices[spec.Name]; ok {
		return m.Hits, nil
	}
	return nil, nil
}

// Reset zeroes every registered matrix in place, so machines holding
// direct counter references (protocol.CounterSource) keep recording
// into the same tables afterwards. It is the campaign engine's per-run
// coverage-delta primitive: reset before a run, and the matrices hold
// exactly that run's hits.
func (c *Collector) Reset() {
	for _, m := range c.order {
		m.Zero()
	}
}

// Matrix returns the named machine's matrix, or nil.
func (c *Collector) Matrix(machine string) *Matrix { return c.matrices[machine] }

// CollectorSnapshot captures every registered matrix's hit counts,
// row after row in registration order.
type CollectorSnapshot struct {
	hits []uint64
}

// Snapshot deep-copies every matrix's hit counts.
func (c *Collector) Snapshot() *CollectorSnapshot { return c.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling s, a snapshot the caller knows is
// dead (nil allocates).
func (c *Collector) SnapshotInto(s *CollectorSnapshot) *CollectorSnapshot {
	if s == nil {
		s = &CollectorSnapshot{}
	}
	s.hits = s.hits[:0]
	for _, m := range c.order {
		for _, row := range m.Hits {
			s.hits = append(s.hits, row...)
		}
	}
	return s
}

// Restore writes a snapshot's counts back into the existing Hits
// tables in place — like Reset, never reallocating, so machines
// holding direct counter references (protocol.CounterSource) keep
// recording into the same tables afterwards. The snapshot must come
// from a collector with the same registered machines.
func (c *Collector) Restore(s *CollectorSnapshot) {
	rest := s.hits
	for _, m := range c.order {
		for _, row := range m.Hits {
			if len(rest) < len(row) {
				panic(fmt.Sprintf("coverage: restore snapshot ends inside machine %q", m.Spec.Name))
			}
			rest = rest[copy(row, rest):]
		}
	}
	if len(rest) != 0 {
		panic("coverage: restore snapshot holds more cells than the collector")
	}
}

// Machines lists registered machines in registration order.
func (c *Collector) Machines() []string {
	names := make([]string, len(c.order))
	for i, m := range c.order {
		names[i] = m.Spec.Name
	}
	return names
}

// heatShades maps log-scaled frequency to glyphs, darkest last.
var heatShades = []rune{'.', ':', '-', '=', '+', '*', '#', '%', '@'}

// RenderHeatmap writes a Fig. 5-style transition hit-frequency heat
// map: rows are events, columns are states; shade depth is
// log-proportional to hit count. Undefined cells print as "U", stall
// cells are shaded like any defined cell.
func (m *Matrix) RenderHeatmap(w io.Writer, impossible CellSet) {
	var max uint64
	for i := range m.Hits {
		for j := range m.Hits[i] {
			if m.Hits[i][j] > max {
				max = m.Hits[i][j]
			}
		}
	}
	logMax := math.Log1p(float64(max))

	fmt.Fprintf(w, "%s transition hit frequency (max=%d)\n", m.Spec.Name, max)
	fmt.Fprintf(w, "%-14s", "")
	for _, st := range m.Spec.States {
		fmt.Fprintf(w, "%8s", st)
	}
	fmt.Fprintln(w)
	for j, ev := range m.Spec.Events {
		fmt.Fprintf(w, "%-14s", ev)
		for i := range m.Spec.States {
			cell := m.Spec.Cell(i, j)
			var glyph string
			switch {
			case cell.Kind == protocol.Undefined:
				glyph = "U"
			case impossible != nil && impossible.Has(i, j):
				glyph = "x"
			case m.Hits[i][j] == 0:
				glyph = " "
			default:
				idx := 0
				if logMax > 0 {
					idx = int(math.Log1p(float64(m.Hits[i][j])) / logMax * float64(len(heatShades)-1))
				}
				glyph = strings.Repeat(string(heatShades[idx]), 3)
			}
			fmt.Fprintf(w, "%8s", glyph)
		}
		fmt.Fprintln(w)
	}
}

// RenderClassGrid writes a Fig. 7-style classification grid.
func (m *Matrix) RenderClassGrid(w io.Writer, impossible CellSet) {
	classes := m.Classify(impossible)
	fmt.Fprintf(w, "%s transition classes\n", m.Spec.Name)
	fmt.Fprintf(w, "%-14s", "")
	for _, st := range m.Spec.States {
		fmt.Fprintf(w, "%8s", st)
	}
	fmt.Fprintln(w)
	for j, ev := range m.Spec.Events {
		fmt.Fprintf(w, "%-14s", ev)
		for i := range m.Spec.States {
			fmt.Fprintf(w, "%8s", classes[i][j])
		}
		fmt.Fprintln(w)
	}
}
