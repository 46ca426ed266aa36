package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
)

// benchProcs is the GOMAXPROCS every child runs with: the reference box
// has 2 cores, and two workloads use a second thread.
const benchProcs = 2

//go:embed expected.json
var expectedJSON []byte

// expectedDigests returns the pinned seed-1, factor-1 digests.
func expectedDigests() (map[string]map[string]uint64, error) {
	var m map[string]map[string]uint64
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// environment is recorded in every result document.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	WorkFactor float64 `json:"work_factor"`
	Traced     bool    `json:"traced"`
	WallS      float64 `json:"wall_s"`
}

func readEnvironment(p params, traced bool) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs, GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown",
		Seed: p.Seed, RunSeconds: p.Seconds, WorkFactor: p.Factor, Traced: traced,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// stat is one metric over the repeats of one workload.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func (s *stat) add(v float64) {
	s.Values = append(s.Values, v)
	s.Median = median(s.Values)
	s.Min = quantile(s.Values, 0)
	s.Max = quantile(s.Values, 1)
}

// workloadDoc is one workload's section of a result document.
type workloadDoc struct {
	Name     string           `json:"name"`
	Op       string           `json:"op"`
	Repeats  int              `json:"repeats"`
	EndToEnd map[string]*stat `json:"end_to_end,omitempty"`
	PerLayer map[string]*stat `json:"per_layer,omitempty"`
	// Digest holds the exact simulated statistics of one round; every
	// round of every repeat must reproduce it.
	Digest    map[string]uint64 `json:"digest"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	// Rounds is how many rounds each repeat fitted into its time.
	Rounds []int `json:"rounds,omitempty"`
	// RoundWallS keeps the raw per-round run-phase times of each repeat.
	RoundWallS [][]float64 `json:"round_wall_s,omitempty"`
}

type document struct {
	Schema    int            `json:"schema"`
	Env       environment    `json:"env"`
	Workloads []*workloadDoc `json:"workloads"`
}

func (d *workloadDoc) check(ok bool, format string, args ...any) {
	d.Attempted++
	if !ok {
		d.Failed++
		d.Failures = append(d.Failures, fmt.Sprintf(format, args...))
	}
}

func (d *workloadDoc) absorb(rs roundStats) {
	d.Attempted += rs.Checks
	d.Failed += len(rs.Failed)
	d.Failures = append(d.Failures, rs.Failed...)
}

func (d *workloadDoc) record(table map[string]*stat, decl []metric, vals map[string]float64) {
	for _, m := range decl {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		if table[m.Name] == nil {
			table[m.Name] = &stat{Unit: m.Unit}
		}
		table[m.Name].add(v)
	}
}

// checkDigest holds a repeat's digest against the first repeat's and,
// where one is pinned, against expected.json.
func (d *workloadDoc) checkDigest(w *workload, p params, key string, digest map[string]uint64) {
	if d.Digest == nil {
		d.Digest = digest
		if p.Factor == 1 && (p.Seed == 1 || w.SeedFree) {
			want, err := expectedDigests()
			d.check(err == nil && reflect.DeepEqual(want[key], digest),
				"digest %v differs from expected.json %s %v (%v)", digest, key, want[key], err)
		}
		return
	}
	d.check(reflect.DeepEqual(d.Digest, digest), "digest %v differs from the first repeat's %v", digest, d.Digest)
}

// fastest returns the smallest of one per-round quantity. Rounds are
// identical fixed work and on a shared box other tenants only ever add
// time, so the fastest of many short rounds is the steadiest estimate of
// the program's own cost; quartiles and medians of the same rounds
// spread wider from run to run here (round_wall_s keeps the whole
// distribution).
func fastest(rounds []roundTime, of func(roundTime) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = of(r)
	}
	return quantile(xs, 0)
}

// timedRepeat makes one timed repeat of w: a set-up child, then the
// timed child, strictly one after the other.
func timedRepeat(w *workload, p params, d *workloadDoc) {
	var aux auxResult
	_, err := spawn("aux", w, p, "", &aux)
	d.check(err == nil, "%v", err)
	var timed timedResult
	usage, terr := spawn("timed", w, p, "", &timed)
	d.check(terr == nil, "%v", terr)
	if err != nil || terr != nil {
		return
	}
	d.absorb(aux.Stats)
	d.absorb(timed.Stats)
	if aux.Stats.Canon != "" {
		d.check(aux.Stats.Canon == timed.Stats.Canon, "daemon report %s differs from the direct campaign's %s", timed.Stats.Canon, aux.Stats.Canon)
	}
	d.checkDigest(w, p, w.Name, timed.Stats.Digest)

	walls := make([]float64, len(timed.Rounds))
	for i, r := range timed.Rounds {
		walls[i] = r.WallS
	}
	d.RoundWallS = append(d.RoundWallS, walls)

	rounds := float64(len(timed.Rounds))
	d.Rounds = append(d.Rounds, len(timed.Rounds))
	t := fastest(timed.Rounds, func(r roundTime) float64 { return r.WallS })
	d.record(d.EndToEnd, endToEnd, map[string]float64{
		"setup_s":         median(aux.SetupS),
		"memops_per_s":    float64(timed.Stats.Memops) / t,
		"seeds_per_s":     float64(timed.Stats.Seeds) / t,
		"schedules_per_s": float64(timed.Stats.Schedules) / t,
		"bound_s":         t,
		"cpu_s":           fastest(timed.Rounds, func(r roundTime) float64 { return r.CPUS }),
		"allocs_per_op":   float64(timed.Mallocs) / (rounds * timed.Stats.ops(w.Op)),
		"peak_rss_mb":     usage.PeakRSSMB,
	})
}

// tracedRepeat makes one traced repeat of w in a single child.
func tracedRepeat(w *workload, p params, spans string, d *workloadDoc) {
	var res tracedResult
	_, err := spawn("traced", w, p, spans, &res)
	d.check(err == nil, "%v", err)
	if err != nil {
		return
	}
	d.absorb(res.Stats)
	d.checkDigest(w, p, res.DigestKey, res.Stats.Digest)
	d.record(d.PerLayer, perLayer, res.Layers)
}

// runWorkload measures one workload, repeats times over.
func runWorkload(w *workload, p params, repeats int, traced bool, spans string) *workloadDoc {
	d := &workloadDoc{Name: w.Name, Op: w.Op, Repeats: repeats}
	if traced {
		d.PerLayer = map[string]*stat{}
	} else {
		d.EndToEnd = map[string]*stat{}
	}
	for r := 0; r < repeats; r++ {
		if traced {
			tracedRepeat(w, p, spans, d)
		} else {
			timedRepeat(w, p, d)
		}
	}
	if !traced {
		// The share of checks that held is itself a metric, so that a
		// build that starts failing is a regression and not a gap.
		d.record(d.EndToEnd, endToEnd, map[string]float64{"passed_share": 1 - float64(d.Failed)/float64(max(d.Attempted, 1))})
	}
	return d
}

// driverLine is the one-line result the benchmark contract asks for.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult flattens a single-workload document into the contract's
// shape: every declared metric of the mode, a per-layer metric that
// does not apply to the workload reading 0.
func driverResult(d *workloadDoc, traced bool) driverLine {
	line := driverLine{Correct: d.Failed == 0, Attempted: max(d.Attempted, 1), Failed: d.Failed, Metrics: map[string]driverValue{}}
	decl, table := endToEnd, d.EndToEnd
	if traced {
		decl, table = perLayer, d.PerLayer
	}
	for _, m := range decl {
		v := driverValue{Unit: m.Unit}
		if s := table[m.Name]; s != nil {
			v.Value = s.Median
		}
		line.Metrics[m.Name] = v
	}
	return line
}

// writeExpected regenerates expected.json from one in-process round of
// every workload at seed 1 and factor 1.
func writeExpected(path string) error {
	out := map[string]map[string]uint64{}
	pin := func(key string, fresh func(params) instance) error {
		inst := fresh(params{Seed: 1, Factor: 1})
		rs := inst.run()
		inst.close()
		if len(rs.Failed) > 0 {
			return fmt.Errorf("%s: %v", key, rs.Failed)
		}
		out[key] = rs.Digest
		return nil
	}
	for _, w := range workloads {
		if err := pin(w.Name, w.setup); err != nil {
			return err
		}
		if w.assembly != nil {
			if err := pin(w.Name+".assembly", w.assembly); err != nil {
				return err
			}
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
