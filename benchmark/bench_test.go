package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// spawn re-executes it as a measurement child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// testParams is a work factor at which every workload, timed and
// traced, finishes within the tier-1 budget.
var testParams = params{Seed: 1, Seconds: 0.01, Factor: 0.05}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func declared(ms []metric) []manifestMetric {
	out := make([]manifestMetric, len(ms))
	for i, m := range ms {
		out[i] = manifestMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
	}
	return out
}

// TestManifestMatchesDeclarations holds BENCHMARK.json and the Go
// tables together and checks the contract's limits.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark {%s %s}", i, m.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, declared(endToEnd)) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", m.EndToEnd, declared(endToEnd))
	}
	if !reflect.DeepEqual(m.PerLayer, declared(perLayer)) {
		t.Errorf("per_layer differs:\n%+v\n%+v", m.PerLayer, declared(perLayer))
	}

	if len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("too many declarations: %d workloads, %d end-to-end, %d per-layer", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range append(append([]manifestMetric{}, m.EndToEnd...), m.PerLayer...) {
		use(e.Name)
		if !unit.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") || e.Bound < 0 || e.Bound > 0.25 {
			t.Errorf("metric %+v breaks the contract", e)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, pl := range perLayer {
		if pl.On == "" {
			t.Errorf("%s applies to no workload", pl.Name)
		}
	}
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]*stat) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsEmitDeclaredMetrics runs every workload timed and traced
// at a small work factor. Each must pass its own checks — among them
// that the traced run under the always-0 chooser reproduces the untraced
// digest and that span parents resolve with non-negative self times —
// and emit exactly the metrics declared for it. The workloads run side
// by side here: the test reads which numbers come out, not their values.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			emitsDeclaredMetrics(t, w)
		})
	}
}

func emitsDeclaredMetrics(t *testing.T, w *workload) {
	timed := runWorkload(w, testParams, 1, false, "")
	if timed.Failed != 0 {
		t.Errorf("timed: %v", timed.Failures)
	}
	if got, want := keys(timed.EndToEnd), names(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics:\n got %v\nwant %v", got, want)
	}
	for name, s := range timed.EndToEnd {
		if s.Median <= 0 {
			t.Errorf("%s = %v, want > 0", name, s.Median)
		}
	}

	traced := runWorkload(w, testParams, 1, true, "")
	if traced.Failed != 0 {
		t.Errorf("traced: %v", traced.Failures)
	}
	if got, want := keys(traced.PerLayer), names(layersFor(w)); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics:\n got %v\nwant %v", got, want)
	}
	if line := driverResult(traced, true); len(line.Metrics) != len(perLayer) {
		t.Errorf("traced driver line has %d metrics, want %d", len(line.Metrics), len(perLayer))
	}
}

func TestSelfTimesCoverOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 60},
		{ID: 3, Parent: 1, StartNs: 40, EndNs: 90}, // overlaps span 2
		{ID: 4, Parent: 3, StartNs: 50, EndNs: 70},
	}
	want := map[int]int64{1: 20, 2: 50, 3: 30, 4: 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if err := spansConsistent(spans); err != nil {
		t.Error(err)
	}
	if err := spansConsistent([]span{{ID: 1, Parent: 7}}); err == nil {
		t.Error("unresolved parent accepted")
	}
}

func TestAgree(t *testing.T) {
	doc := func(median, lo, hi float64, ops uint64) *document {
		return &document{Workloads: []*workloadDoc{{
			Name:     "tester_small",
			Digest:   map[string]uint64{"ops": ops},
			EndToEnd: map[string]*stat{"memops_per_s": {Unit: "1/s", Median: median, Min: lo, Max: hi}},
		}}}
	}
	for _, c := range []struct {
		name               string
		a, b               *document
		differ, unresolved int
	}{
		{"equal", doc(100, 99, 101, 5), doc(103, 102, 104, 5), 0, 0},
		{"median beyond bound", doc(100, 99, 101, 5), doc(140, 139, 141, 5), 1, 0},
		{"own spread beyond bound", doc(100, 70, 130, 5), doc(140, 139, 141, 5), 0, 1},
		{"exact count moved", doc(100, 99, 101, 5), doc(100, 99, 101, 6), 1, 0},
	} {
		if differ, unresolved := agree(c.a, c.b, io.Discard); differ != c.differ || unresolved != c.unresolved {
			t.Errorf("%s: %d differ, %d unresolved; want %d, %d", c.name, differ, unresolved, c.differ, c.unresolved)
		}
	}
}
