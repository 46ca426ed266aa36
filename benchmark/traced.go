package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"drftest/internal/apps"
	"drftest/internal/campaignd"
	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/explore"
	"drftest/internal/harness"
	"drftest/internal/mem"
	"drftest/internal/memctrl"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// The traced run takes its per-layer numbers from outside the program,
// by five techniques, none of which edits product code:
//
//	T1  classChooser: host time per component class, from event tags
//	T2  spans around the benchmark's own calls into each layer
//	T3  public counters read after the run
//	T4  isolated drives of a layer's API (drives.go)
//	T5  differential runs

// tracedRound is what the instrumented variant of one round yields.
type tracedRound struct {
	Stats roundStats
	// RunS is the traced run phase, compared with the untraced one.
	RunS   float64
	Layers layers
}

// tracedResult is what the traced child reports.
type tracedResult struct {
	Stats  roundStats         `json:"stats"`
	Layers map[string]float64 `json:"layers"`
	// DigestKey names the expected.json entry Stats.Digest is held
	// against: the workload, or its benchmark-owned assembly.
	DigestKey string `json:"digest_key"`
}

// differentialRuns is how many runs each side of a T5 comparison makes;
// a single run on a shared box mostly measures the other tenants.
const differentialRuns = 3

// bestRun makes differentialRuns fresh instances, times each one's run
// and returns the shortest.
func bestRun(fresh func() instance) time.Duration {
	best := time.Duration(0)
	for i := 0; i < differentialRuns; i++ {
		inst := fresh()
		t0 := time.Now()
		inst.run()
		d := time.Since(t0)
		inst.close()
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// gcCPUSeconds reads the Go runtime's estimate of CPU spent in GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runTraced makes one untraced round of the assembly the traced round
// instruments, then the traced round, and holds the two together.
func runTraced(w *workload, p params, spans string) (tracedResult, error) {
	plainSetup, key := w.setup, w.Name
	if w.assembly != nil {
		plainSetup, key = w.assembly, w.Name+".assembly"
	}
	var before, after runtime.MemStats
	inst := plainSetup(p)
	runtime.GC()
	runtime.ReadMemStats(&before)
	gc0, cpu0, t0 := gcCPUSeconds(), selfCPU(), time.Now()
	plain := inst.run()
	plainS := time.Since(t0).Seconds()
	gc, cpu := gcCPUSeconds()-gc0, (selfCPU() - cpu0).Seconds()
	runtime.ReadMemStats(&after)
	inst.close()

	tr := newTracer(w.Name)
	runtime.GC()
	round := w.traced(p, tr)

	res := tracedResult{Stats: round.Stats, Layers: round.Layers, DigestKey: key}
	res.Stats.Checks += plain.Checks
	res.Stats.Failed = append(res.Stats.Failed, plain.Failed...)
	res.Stats.check(reflect.DeepEqual(plain.Digest, round.Stats.Digest),
		"traced digest %v differs from the untraced %v", round.Stats.Digest, plain.Digest)
	spanErr := spansConsistent(tr.spans)
	res.Stats.check(spanErr == nil, "spans: %v", spanErr)

	res.Layers["runtime.alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / plain.ops(w.Op)
	res.Layers["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	res.Layers["runtime.gc_cpu_share"] = gc / cpu
	res.Layers["trace.overhead_share"] = round.RunS/plainS - 1

	if spans != "" {
		if err := tr.appendTo(spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

// spansConsistent checks that every parent resolves and no span's
// children outlast it.
func spansConsistent(spans []span) error {
	for _, s := range spans {
		if s.Parent < 0 || s.Parent > len(spans) || s.Parent == s.ID {
			return fmt.Errorf("span %d (%s) has unresolved parent %d", s.ID, s.Name, s.Parent)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d ns", id, spans[id-1].Name, self)
		}
	}
	return nil
}

// --- tester_small, tester_large_stream ---

// sliceTicks is the fixed simulated-time slice the traced run hands
// Kernel.Run, so that spans and queue-depth samples share a grid.
const sliceTicks = 20_000

// systemCounters accumulates the public counters (T3) of finished GPU
// systems and the memory controllers behind them.
type systemCounters struct {
	loads, hits, tcpStalls uint64
	l2                     map[string]uint64
	p50, p99               uint64
	reads, writes, atomics uint64
	peak                   int
	gets, allocs           uint64
}

func (c *systemCounters) add(sys *viper.System, ctrl *memctrl.Controller) {
	for _, tcp := range sys.TCPs {
		ld, hit, _, _, st := tcp.Stats()
		c.loads, c.hits, c.tcpStalls = c.loads+ld, c.hits+hit, c.tcpStalls+st
	}
	if c.l2 == nil {
		c.l2 = map[string]uint64{}
	}
	for k, v := range sys.L2Stats() {
		c.l2[k] += v
	}
	// Across several systems the latency percentiles are the worst seen.
	load := sys.Latencies().Load
	c.p50, c.p99 = max(c.p50, load.Percentile(0.50)), max(c.p99, load.Percentile(0.99))
	r, w, at, peak := ctrl.Stats()
	c.reads, c.writes, c.atomics, c.peak = c.reads+r, c.writes+w, c.atomics+at, max(c.peak, peak)
	g, al := ctrl.Pool().Stats()
	c.gets, c.allocs = c.gets+g, c.allocs+al
}

// into writes the counters as per-op metrics.
func (c *systemCounters) into(l layers, ops float64) {
	l["viper.tcp_hit_ratio"] = float64(c.hits) / float64(max(c.loads, 1))
	l["viper.tcp_stalls_per_op"] = float64(c.tcpStalls) / ops
	l["viper.l2_rdblk_per_op"] = float64(c.l2["rdblk"]) / ops
	l["viper.l2_fills_per_op"] = float64(c.l2["fills"]) / ops
	l["viper.l2_wrvic_per_op"] = float64(c.l2["wrvicblk"]) / ops
	l["viper.l2_stalls_per_op"] = float64(c.l2["stalls"]) / ops
	l["viper.load_latency_ticks_p50"] = float64(c.p50)
	l["viper.load_latency_ticks_p99"] = float64(c.p99)
	l["memctrl.reads_per_op"] = float64(c.reads) / ops
	l["memctrl.writes_per_op"] = float64(c.writes) / ops
	l["memctrl.atomics_per_op"] = float64(c.atomics) / ops
	l["memctrl.queue_peak"] = float64(c.peak)
	l["mem.line_gets_per_op"] = float64(c.gets) / ops
	l["mem.line_pool_miss_ratio"] = float64(c.allocs) / float64(max(c.gets, 1))
}

// classCounters turns the T1 chooser's tallies into per-op numbers.
func classCounters(l layers, ch *classChooser, ops float64) {
	for class, prefix := range map[uint32][2]string{
		0:                 {"sim.untagged_events_per_op", "sim.untagged_ns_per_op"},
		sim.CompLink:      {"network.deliveries_per_op", "network.deliver_ns_per_op"},
		sim.CompSequencer: {"viper.sequencer_events_per_op", "viper.sequencer_ns_per_op"},
		sim.CompTester:    {"core.issue_events_per_op", "core.issue_ns_per_op"},
		sim.CompMemCtrl:   {"memctrl.events_per_op", "memctrl.ns_per_op"},
	} {
		l[prefix[0]] = float64(ch.Events[class]) / ops
		l[prefix[1]] = float64(ch.Nanos[class]) / ops
	}
}

// runSliced drives k to idle in fixed-tick slices under the class
// chooser, one span per slice, and returns the mean queue depth seen at
// the slice boundaries.
func runSliced(k *sim.Kernel, ch *classChooser, tr *tracer) (meanDepth int) {
	var depth, samples int
	for until := k.Now() + sliceTicks; ; until += sliceTicks {
		tr.do("sim.Kernel.Run", func() { k.Run(until) })
		ch.settle(time.Now())
		if k.Pending() == 0 || k.Stopped() {
			break
		}
		depth += k.Pending()
		samples++
	}
	return max(depth/max(samples, 1), 1)
}

func tracedTester(s testerSpec, tr *tracer) tracedRound {
	l := layers{}
	var b *harness.GPUBuild
	var t *core.Tester
	tr.do("harness.BuildGPU", func() { b = harness.BuildGPU(s.sys) })
	tr.do("core.New", func() { t = core.New(b.K, b.Sys, s.test) })
	ch := &classChooser{}
	b.K.SetChooser(ch)

	var rep *core.Report
	var depth int
	var rs roundStats
	run := tr.do("run", func() {
		tr.do("core.Tester.Start", t.Start)
		depth = runSliced(b.K, ch, tr)
		tr.do("core.Tester.Finish", t.Finish)
		rep = t.Report()
		tr.do("coverage.Matrix.Summarize", func() { rs = testerStats(b, rep) })
	})

	ops := float64(max(rep.OpsCompleted, 1))
	classCounters(l, ch, ops)
	var counters systemCounters
	counters.add(b.Sys, b.Sys.Mem)
	counters.into(l, ops)
	l["sim.events_per_op"] = float64(rep.EventsExecuted) / ops
	l["coverage.fires_per_op"] = float64(b.Col.Matrix("GPU-L1").Total()+b.Col.Matrix("GPU-L2").Total()) / ops
	coverageCells(l, rs.Digest)

	// T5: the same run with the online checker on and off.
	withStream := func(on bool) time.Duration {
		spec := s
		spec.test.StreamCheck = on
		return bestRun(func() instance { return newTesterInstance(spec) })
	}
	l["checker.online_ns_per_op"] = float64(withStream(true)-withStream(false)) / ops

	testerWorkloadDrives(l, s.sys, s.test, depth)
	return tracedRound{Stats: rs, RunS: run.Seconds(), Layers: l}
}

// testerWorkloadDrives runs every T4 drive that applies to a workload
// whose seeds are tester runs of test over sys.
func testerWorkloadDrives(l layers, sys viper.Config, test core.Config, depth int) {
	commonDrives(l, sys, addressSpan(test), depth)
	testerDrives(l, sys, test)
}

// coverageCells copies a digest's active-cell counts into the layers.
func coverageCells(l layers, digest map[string]uint64) {
	for _, level := range []string{"l1_cells", "l2_cells", "dir_cells"} {
		if n, ok := digest[level]; ok {
			l["coverage."+level] = float64(n)
		}
	}
}

// addressSpan is the byte range a tester configuration maps its
// variables into (core's default is twice the packed size).
func addressSpan(c core.Config) uint64 {
	if c.AddressRangeBytes != 0 {
		return c.AddressRangeBytes
	}
	return uint64(c.NumSyncVars+c.NumDataVars) * mem.WordSize * 2
}

// --- app_suite ---

// appAssembly is the benchmark-owned stand-in for RunAppSuite, whose
// kernel and host-polling driver are private: per profile it assembles
// BuildHetero + DMA.CopyIn + apps.Run + DMA.CopyOut itself (no CPU
// poller), so its exact counts differ from RunAppSuite's and are pinned
// as a separate digest.
type appAssembly struct {
	opts harness.AppSuiteOptions
	// The traced run sets all three; the untraced run none.
	tr *tracer
	ch *classChooser
	l  layers
}

func (a *appAssembly) close() {}

func (a *appAssembly) span(name string, fn func()) {
	if a.tr == nil {
		fn()
		return
	}
	a.tr.do(name, fn)
	a.ch.settle(time.Now())
}

func (a *appAssembly) run() roundStats {
	rs := roundStats{Digest: map[string]uint64{}}
	union := map[string]*coverage.Matrix{}
	var counters systemCounters
	var nacks, probes, stale, dmaLines uint64
	completed, faults := true, 0
	for i, prof := range apps.Profiles {
		prof.MemOpsPerLane = max(int(float64(prof.MemOpsPerLane)*a.opts.Scale), 10)
		var b *harness.HeteroBuild
		a.span("harness.BuildHetero", func() {
			b = harness.BuildHetero(viper.DefaultConfig(), 2, harness.DefaultCPUCache)
		})
		if a.ch != nil {
			b.K.SetChooser(a.ch)
		}
		a.span("dma.Engine.CopyIn", func() {
			b.DMA.CopyIn(apps.SharedRegionBase, 32, 50, nil)
			b.K.RunUntilIdle()
		})
		var res *apps.RunResult
		a.span("apps.Run", func() {
			res = apps.Run(b.K, b.GPU, prof, a.opts.Seed+uint64(i), a.opts.NumWFs, 4, 0)
			b.K.RunUntilIdle()
		})
		a.span("dma.Engine.CopyOut", func() {
			b.DMA.CopyOut(apps.StreamRegionBase, 32, 50, nil)
			b.K.RunUntilIdle()
		})

		rs.Memops += res.MemOps
		rs.Digest["events"] += res.Events
		rs.Digest["ticks"] += res.SimTicks
		rs.Digest["instructions"] += res.Instructions
		completed = completed && res.Completed
		faults += res.Faults
		for _, name := range []string{"GPU-L1", "GPU-L2", "Directory"} {
			m := b.Col.Matrix(name)
			if union[name] == nil {
				union[name] = m.Clone()
			} else {
				union[name].Merge(m)
			}
		}
		if a.l == nil {
			continue
		}
		counters.add(b.GPU, b.Dir.Memory())
		n, pr, sv := b.Dir.Stats()
		nacks, probes, stale = nacks+n, probes+pr, stale+sv
		dr, dw := b.DMA.Stats()
		dmaLines += dr + dw
	}
	rs.Seeds = uint64(len(apps.Profiles))
	rs.Schedules = rs.Seeds
	rs.Digest["ops"] = rs.Memops
	rs.Digest["l1_cells"] = uint64(union["GPU-L1"].Summarize(nil).Active)
	rs.Digest["l2_cells"] = uint64(union["GPU-L2"].Summarize(harness.TCCImpossibleHetero()).Active)
	rs.Digest["dir_cells"] = uint64(union["Directory"].Summarize(nil).Active)
	rs.check(faults == 0, "%d protocol faults", faults)
	rs.check(completed, "an application did not complete")

	if l := a.l; l != nil {
		ops := float64(max(rs.Memops, 1))
		classCounters(l, a.ch, ops)
		delete(l, "core.issue_events_per_op") // no tester in this workload
		delete(l, "core.issue_ns_per_op")
		counters.into(l, ops)
		l["sim.events_per_op"] = float64(rs.Digest["events"]) / ops
		l["apps.events_per_memop"] = l["sim.events_per_op"]
		l["apps.instructions_per_memop"] = float64(rs.Digest["instructions"]) / ops
		l["directory.fires_per_op"] = float64(union["Directory"].Total()) / ops
		l["directory.nacks_per_op"] = float64(nacks) / ops
		l["directory.probes_per_op"] = float64(probes) / ops
		l["directory.stale_vics"] = float64(stale)
		l["dma.lines"] = float64(dmaLines)
		l["coverage.fires_per_op"] = float64(union["GPU-L1"].Total()+union["GPU-L2"].Total()+union["Directory"].Total()) / ops
		coverageCells(l, rs.Digest)
	}
	return rs
}

func tracedAppSuite(p params, tr *tracer) tracedRound {
	a := &appAssembly{opts: appOptions(p), tr: tr, ch: &classChooser{}, l: layers{}}
	var rs roundStats
	run := tr.do("run", func() { rs = a.run() })
	// The application regions are sparse; the drives walk a 1 MB window.
	commonDrives(a.l, viper.DefaultConfig(), 1<<20, defaultDepth)
	return tracedRound{Stats: rs, RunS: run.Seconds(), Layers: a.l}
}

// --- campaign_fork, campaign_swarm ---

// tracedCampaign is the loop RunGPUCampaign is made of, at one worker,
// with a span around every step.
func tracedCampaign(cfg harness.CampaignConfig, tr *tracer) tracedRound {
	l := layers{}
	var st *harness.CampaignState
	var ctx *harness.RunContext
	var res *harness.CampaignResult
	var last *harness.Corner
	var switches int
	var afterSwitch []float64

	run := tr.do("run", func() {
		tr.do("harness.NewCampaignState", func() { st = harness.NewCampaignState(cfg) })
		l["harness.new_run_context_s"] = tr.do("harness.NewRunContext", func() { ctx = harness.NewRunContext(cfg) }).Seconds()
		for {
			var plan harness.BatchPlan
			var ok bool
			tr.do("harness.CampaignState.Plan", func() { plan, ok = st.Plan() })
			if !ok {
				break
			}
			switched := last != nil && plan.Corner != last
			if switched {
				switches++
			}
			last = plan.Corner
			for i := 0; i < plan.Count; i++ {
				d := tr.do("harness.RunContext.RunSeed", func() { ctx.RunSeed(plan.First+uint64(i), plan.Corner) })
				if i == 0 && switched {
					afterSwitch = append(afterSwitch, micros(d))
				}
			}
			tr.do("harness.CampaignState.Apply", func() { st.Apply([]harness.BatchDelta{ctx.Delta()}) })
			tr.do("harness.RunContext.ClearDelta", ctx.ClearDelta)
		}
		res = st.Result()
	})

	seeds := tr.durations("harness.RunContext.RunSeed")
	l["harness.run_seed_samples"] = float64(len(seeds))
	l["harness.run_seed_us_p50"] = median(seeds)
	if cfg.Mode == harness.CampaignUniform {
		// Worth reading only with ten samples beyond it, i.e. from 1 000
		// seeds up; the reference size runs 1 280.
		l["harness.run_seed_us_p99"] = quantile(seeds, 0.99)
	}
	l["harness.corner_switches"] = float64(switches)
	if cfg.Mode != harness.CampaignUniform {
		l["harness.first_seed_after_corner_switch_us_p50"] = median(afterSwitch)
	}
	l["harness.plan_us_per_batch"] = mean(tr.durations("harness.CampaignState.Plan"))
	l["harness.apply_us_per_batch"] = mean(tr.durations("harness.CampaignState.Apply"))

	rs := campaignStats(res)
	ops := float64(max(res.TotalOps, 1))
	l["sim.events_per_op"] = float64(res.TotalEvents) / ops
	l["coverage.fires_per_op"] = float64(res.UnionL1.Total()+res.UnionL2.Total()) / ops
	coverageCells(l, rs.Digest)

	test := cfg.TestCfg
	test.Seed = cfg.BaseSeed
	testerWorkloadDrives(l, cfg.SysCfg, test, defaultDepth)
	return tracedRound{Stats: rs, RunS: run.Seconds(), Layers: l}
}

// defaultDepth is the event-queue depth the loop drive keeps where the
// workload's kernel is out of the benchmark's reach.
const defaultDepth = 16

// --- explore_dpor ---

func tracedExplore(p params, tr *tracer) tracedRound {
	l := layers{}
	cfg := exploreDPOR(p)
	var res *explore.Result
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run := tr.do("explore.Run", func() { res, err = explore.Run(cfg) })
	runtime.ReadMemStats(&after)
	rs := exploreStats(cfg, res, err)
	if err == nil {
		points := float64(max(res.ChoicePoints, 1))
		l["explore.schedules"] = float64(res.Schedules)
		l["explore.pruned_paths"] = float64(res.PrunedPaths)
		l["explore.choice_points"] = float64(res.ChoicePoints)
		l["explore.paths_per_s"] = float64(res.Schedules+res.PrunedPaths) / run.Seconds()
		l["explore.us_per_choice_point"] = micros(run) / points
		l["explore.alloc_kb_per_choice_point"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / points
	}
	test := cfg.TestCfg
	test.StreamCheck = true // the explorer forces it on
	testerWorkloadDrives(l, cfg.SysCfg, test, defaultDepth)
	return tracedRound{Stats: rs, RunS: run.Seconds(), Layers: l}
}

// --- daemon_lease ---

// httpMeter is the T2 middleware around Server.Handler(): a span and a
// byte count per request.
type httpMeter struct {
	tr    *tracer
	mu    sync.Mutex
	ms    map[string][]float64
	bytes int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (m *httpMeter) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		next.ServeHTTP(cw, r)
		route := r.Method + " " + r.URL.Path
		d := m.tr.record("campaignd "+route, start)
		m.mu.Lock()
		m.ms[route] = append(m.ms[route], float64(d)/1e6)
		if strings.HasSuffix(route, "/lease") || strings.HasSuffix(route, "/results") {
			m.bytes += cw.n + body.n
		}
		m.mu.Unlock()
	})
}

func tracedDaemon(p params, tr *tracer) tracedRound {
	l := layers{}
	spec := daemonSpec(p)
	meter := &httpMeter{tr: tr, ms: map[string][]float64{}}
	d := newDaemonInstance(spec, 2, meter.wrap)
	var rs roundStats
	run := tr.do("run", func() { rs = d.run() })
	ctx, cancel := context.WithTimeout(context.Background(), daemonTimeout)
	m, err := (&campaignd.Client{BaseURL: d.ts.URL}).Metrics(ctx)
	cancel()
	d.close()
	rs.check(err == nil, "daemon /metrics: %v", err)

	// The lease time includes the batch-barrier long-poll wait.
	lease, results := meter.ms["POST /lease"], meter.ms["POST /results"]
	l["campaignd.lease_ms_p50"], l["campaignd.lease_ms_p99"] = median(lease), quantile(lease, 0.99)
	l["campaignd.results_ms_p50"], l["campaignd.results_ms_p99"] = median(results), quantile(results, 0.99)
	leases, _ := m["leasesIssued"].(float64)
	requeues, _ := m["leasesExpired"].(float64)
	l["campaignd.leases"] = leases
	l["campaignd.requeues"] = requeues
	l["campaignd.wire_bytes_per_lease"] = float64(meter.bytes) / max(leases, 1)
	coverageCells(l, rs.Digest)

	// T5: the same spec at 2 slots, at 1 slot, and through the
	// single-process engine.
	seeds := float64(spec.MaxSeeds)
	viaDaemon := func(slots int) float64 {
		return seeds / bestRun(func() instance { return newDaemonInstance(spec, slots, nil) }).Seconds()
	}
	w2, w1 := viaDaemon(2), viaDaemon(1)
	cfg, err := spec.CampaignConfig()
	rs.check(err == nil, "spec: %v", err)
	cfg.Workers = 1
	direct := seeds / bestRun(func() instance { return campaignInstance{cfg: cfg} }).Seconds()
	l["campaignd.seeds_per_s_w1"] = w1
	l["campaignd.scale_w2_over_w1"] = w2 / w1
	l["campaignd.overhead_vs_direct"] = direct/w1 - 1

	test := spec.TestCfg
	test.Seed = spec.BaseSeed
	testerWorkloadDrives(l, spec.SysCfg, test, defaultDepth)
	return tracedRound{Stats: rs, RunS: run.Seconds(), Layers: l}
}
