package coverage

import (
	"strings"
	"testing"

	"drftest/internal/protocol"
	"drftest/internal/sim"
)

func demoSpec() *protocol.Spec {
	s := protocol.NewSpec("demo", []string{"I", "V"}, []string{"Ld", "St", "Inv"})
	s.Trans(0, 0, 1, "fill")
	s.Trans(1, 0, 1, "hit")
	s.StallOn(0, 1)
	s.Trans(1, 1, 1, "write")
	s.Trans(1, 2, 0, "inv")
	return s
}

func TestCollectorAggregatesByName(t *testing.T) {
	spec := demoSpec()
	c := NewCollector(spec)
	k := sim.NewKernel()
	m1 := protocol.NewMachine(spec, c.Counters(spec), k)
	m2 := protocol.NewMachine(spec, c.Counters(spec), k)
	m1.Fire(0, 0)
	m2.Fire(0, 0)
	if got := c.Matrix("demo").Hits[0][0]; got != 2 {
		t.Fatalf("aggregated hits = %d, want 2", got)
	}
	if len(c.Machines()) != 1 {
		t.Fatal("duplicate machine registration")
	}
}

// TestCollectorCountersFastPath pins the table a bound machine counts
// into: a registered spec gets its matrix's own Hits table, so
// machine-side increments are immediately visible in reports, and an
// unregistered spec panics at bind.
func TestCollectorCountersFastPath(t *testing.T) {
	spec := demoSpec()
	c := NewCollector(spec)
	hits := c.Counters(spec)
	hits[1][2] = 41
	hits[1][2]++
	if got := c.Matrix("demo").Hits[1][2]; got != 42 {
		t.Fatalf("matrix does not see direct increments: %d", got)
	}
	if (*Collector)(nil).Counters(spec) != nil {
		t.Fatal("a nil collector granted a table")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered spec was granted counters")
		}
	}()
	c.Counters(protocol.NewSpec("ghost", []string{"I"}, []string{"E"}))
}

func TestCollectorUnknownMachinePanics(t *testing.T) {
	c := NewCollector()
	defer func() {
		if recover() == nil {
			t.Fatal("record for unregistered machine did not panic")
		}
	}()
	c.Record("ghost", 0, 0, protocol.Defined)
}

func TestClassifyAndSummarize(t *testing.T) {
	m := NewMatrix(demoSpec())
	m.Hits[0][0] = 5 // [I,Ld] active
	m.Hits[1][2] = 1 // [V,Inv] active
	impsb := CellSet{}
	impsb.Add(1, 1) // [V,St] impossible for this test type

	classes := m.Classify(impsb)
	if classes[0][0] != ClassActive || classes[0][2] != ClassUndef ||
		classes[1][1] != ClassImpossible || classes[1][0] != ClassInactive {
		t.Fatalf("classification wrong: %v", classes)
	}

	s := m.Summarize(impsb)
	// 5 defined cells, 1 impossible → 4 reachable, 2 active.
	if s.Defined != 5 || s.Impossible != 1 || s.Reachable != 4 || s.Active != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.Coverage() != 0.5 {
		t.Fatalf("coverage %.2f, want 0.5", s.Coverage())
	}
	if !strings.Contains(s.String(), "50.0%") {
		t.Fatalf("summary string %q", s)
	}
}

func TestMergeAndClone(t *testing.T) {
	a := NewMatrix(demoSpec())
	b := NewMatrix(demoSpec())
	a.Hits[0][0] = 1
	b.Hits[0][0] = 2
	b.Hits[1][1] = 7
	cl := a.Clone()
	a.Merge(b)
	if a.Hits[0][0] != 3 || a.Hits[1][1] != 7 {
		t.Fatal("merge wrong")
	}
	if cl.Hits[0][0] != 1 || cl.Hits[1][1] != 0 {
		t.Fatal("clone aliases original")
	}
	if a.Total() != 10 {
		t.Fatalf("total %d", a.Total())
	}
}

func TestMergeCountNew(t *testing.T) {
	a := NewMatrix(demoSpec())
	b := NewMatrix(demoSpec())
	a.Hits[0][0] = 1 // already hot: must not count as new
	b.Hits[0][0] = 2
	b.Hits[1][1] = 7 // zero -> nonzero: new
	b.Hits[1][2] = 1 // zero -> nonzero: new
	if n := a.MergeCountNew(b); n != 2 {
		t.Fatalf("MergeCountNew = %d, want 2", n)
	}
	// A second identical merge finds nothing new.
	if n := a.MergeCountNew(b); n != 0 {
		t.Fatalf("repeat MergeCountNew = %d, want 0", n)
	}
}

// mustPanicWith runs fn and asserts it panics with a message
// containing every substring in want.
func mustPanicWith(t *testing.T, fn func(), want ...string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic, got none")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not mention %q", msg, w)
			}
		}
	}()
	fn()
}

func TestMergePanicsNamedAndEarly(t *testing.T) {
	var nilM *Matrix
	m := NewMatrix(demoSpec())

	mustPanicWith(t, func() { m.Merge(nil) }, "nil matrix", "demo")
	mustPanicWith(t, func() { nilM.Merge(m) }, "nil matrix", "demo")

	other := protocol.NewSpec("tiny", []string{"I"}, []string{"Ld"})
	mustPanicWith(t, func() { m.Merge(NewMatrix(other)) },
		"mismatched", "demo", "tiny", "states")

	// Same outer shape, ragged inner row: the panic must fire before
	// any cell of the bad row is merged, naming the state index.
	ragged := NewMatrix(demoSpec())
	ragged.Hits[1] = ragged.Hits[1][:2]
	dst := NewMatrix(demoSpec())
	dst.Hits[0][0] = 5
	mustPanicWith(t, func() { dst.Merge(ragged) },
		"mismatched", "state 1", "events")
	if dst.Hits[0][0] != 5 {
		t.Fatalf("row 0 corrupted by failed merge: %d", dst.Hits[0][0])
	}
}

// TestMergeCountNewFuncAttribution: the onNew hook must see exactly
// the cells that went cold→hot, in row-major order, and a nil hook
// must behave like MergeCountNew.
func TestMergeCountNewFuncAttribution(t *testing.T) {
	a := NewMatrix(demoSpec())
	b := NewMatrix(demoSpec())
	a.Hits[0][0] = 1 // already hot: hook must not fire for it
	b.Hits[0][0] = 2
	b.Hits[1][1] = 7
	b.Hits[1][2] = 1
	var got []Cell
	n := a.MergeCountNewFunc(b, func(state, event int) {
		got = append(got, Cell{State: state, Event: event})
	})
	want := []Cell{{1, 1}, {1, 2}}
	if n != len(want) || len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("attribution = %v (n=%d), want %v", got, n, want)
	}
	if n := a.MergeCountNewFunc(b, func(int, int) { t.Fatal("hook fired on repeat merge") }); n != 0 {
		t.Fatalf("repeat merge found %d new cells", n)
	}
}

// TestColdCells: the typed cold-cell query must list exactly the
// reachable-but-unhit cells in row-major order, respecting the
// impossible mask, and CellName must render spec names.
func TestColdCells(t *testing.T) {
	m := NewMatrix(demoSpec())
	m.Hits[0][0] = 1 // [I,Ld] hot
	impsb := CellSet{}
	impsb.Add(1, 1) // [V,St] impossible

	cold := m.ColdCells(impsb)
	want := []Cell{{0, 1}, {1, 0}, {1, 2}} // [I,St] stall, [V,Ld], [V,Inv]
	if len(cold) != len(want) {
		t.Fatalf("cold = %v, want %v", cold, want)
	}
	for i := range want {
		if cold[i] != want[i] {
			t.Fatalf("cold = %v, want %v", cold, want)
		}
	}
	if name := m.CellName(cold[0]); name != "[I, St]" {
		t.Fatalf("CellName = %q", name)
	}
	// Activating every cold cell empties the query.
	for _, c := range cold {
		m.Hits[c.State][c.Event] = 1
	}
	if left := m.ColdCells(impsb); len(left) != 0 {
		t.Fatalf("still cold after activation: %v", left)
	}
}

func TestInactiveCells(t *testing.T) {
	m := NewMatrix(demoSpec())
	m.Hits[0][0] = 1
	in := m.InactiveCells(nil)
	want := []string{"[I, St]", "[V, Inv]", "[V, Ld]", "[V, St]"}
	if len(in) != len(want) {
		t.Fatalf("inactive = %v", in)
	}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("inactive = %v, want %v", in, want)
		}
	}
}

func TestRenderers(t *testing.T) {
	m := NewMatrix(demoSpec())
	m.Hits[0][0] = 100
	m.Hits[1][0] = 1
	var hb strings.Builder
	m.RenderHeatmap(&hb, nil)
	out := hb.String()
	if !strings.Contains(out, "U") || !strings.Contains(out, "@@@") {
		t.Fatalf("heatmap lacks shading or undef markers:\n%s", out)
	}
	var gb strings.Builder
	m.RenderClassGrid(&gb, nil)
	if !strings.Contains(gb.String(), "Active") || !strings.Contains(gb.String(), "Inact") {
		t.Fatalf("class grid:\n%s", gb.String())
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassUndef: "Undef", ClassInactive: "Inact",
		ClassActive: "Active", ClassImpossible: "Impsb",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestMatrixJSONRoundTrip(t *testing.T) {
	m := NewMatrix(demoSpec())
	m.Hits[0][0] = 9
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"machine":"demo"`, `"active":1`, `"hits":[[9,0,0],[0,0,0]]`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %s:\n%s", want, data)
		}
	}
	sdata, err := m.Summarize(nil).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sdata), `"coverage"`) {
		t.Errorf("summary JSON missing coverage: %s", sdata)
	}
}
