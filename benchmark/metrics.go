package main

import (
	"math"
	"sort"
	"strings"
)

// metric declares one number the benchmark prints. BENCHMARK.json
// carries the same declarations (bench_test.go holds the two together).
type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// On lists the workload classes a per-layer metric applies to:
	// T tester_*, A app_suite, C campaign_fork, S campaign_swarm,
	// X explore_dpor, D daemon_lease.
	On string
	// Exact marks a simulated statistic: it repeats bit for bit, so two
	// commits compare exactly on it and a host-speed change must leave
	// it alone.
	Exact bool
}

// endToEnd are the numbers a user of the system feels. Every workload
// reports every one of them.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "memops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "seeds_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "schedules_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "bound_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "passed_share", Unit: "share", Better: "higher", Bound: 0.001},
}

// perLayer are the single-layer numbers of a traced run; a layer is a
// package under internal/. The README says which end-to-end metric
// each should move and where it should stay flat.
var perLayer = []metric{
	{Name: "sim.events_per_op", Unit: "count", Better: "lower", On: "TACS", Exact: true},
	{Name: "sim.loop_ns_per_event", Unit: "ns", Better: "lower", On: "TACSXD"},
	{Name: "sim.untagged_events_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "sim.untagged_ns_per_op", Unit: "ns", Better: "lower", On: "TA"},
	{Name: "sim.snapshot_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "sim.restore_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "sim.reset_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "network.deliveries_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "network.deliver_ns_per_op", Unit: "ns", Better: "lower", On: "TA"},
	{Name: "viper.sequencer_events_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "viper.sequencer_ns_per_op", Unit: "ns", Better: "lower", On: "TA"},
	{Name: "viper.tcp_hit_ratio", Unit: "share", Better: "higher", On: "TA", Exact: true},
	{Name: "viper.tcp_stalls_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "viper.l2_rdblk_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "viper.l2_fills_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "viper.l2_wrvic_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "viper.l2_stalls_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "viper.load_latency_ticks_p50", Unit: "ticks", Better: "lower", On: "TA", Exact: true},
	{Name: "viper.load_latency_ticks_p99", Unit: "ticks", Better: "lower", On: "TA", Exact: true},
	{Name: "viper.snapshot_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "viper.restore_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "viper.reset_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "cache.lookup_ns", Unit: "ns", Better: "lower", On: "TACSXD"},
	{Name: "cache.install_ns", Unit: "ns", Better: "lower", On: "TACSXD"},
	{Name: "cache.flash_invalidate_us", Unit: "us", Better: "lower", On: "TACSXD"},
	{Name: "cache.for_each_valid_us", Unit: "us", Better: "lower", On: "TACSXD"},
	{Name: "cache.reset_us", Unit: "us", Better: "lower", On: "TACSXD"},
	{Name: "cache.snapshot_us", Unit: "us", Better: "lower", On: "TACSXD"},
	{Name: "cache.restore_us", Unit: "us", Better: "lower", On: "TACSXD"},
	{Name: "memctrl.reads_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "memctrl.writes_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "memctrl.atomics_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "memctrl.queue_peak", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "memctrl.events_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "memctrl.ns_per_op", Unit: "ns", Better: "lower", On: "TA"},
	{Name: "mem.store_ns_per_access", Unit: "ns", Better: "lower", On: "TACSXD"},
	{Name: "mem.line_gets_per_op", Unit: "count", Better: "lower", On: "TA", Exact: true},
	{Name: "mem.line_pool_miss_ratio", Unit: "share", Better: "lower", On: "TA", Exact: true},
	{Name: "mem.snapshot_us", Unit: "us", Better: "lower", On: "TACSXD"},
	{Name: "mem.restore_us", Unit: "us", Better: "lower", On: "TACSXD"},
	{Name: "coverage.fires_per_op", Unit: "count", Better: "lower", On: "TACS", Exact: true},
	{Name: "coverage.l1_cells", Unit: "count", Better: "higher", On: "TACSD", Exact: true},
	{Name: "coverage.l2_cells", Unit: "count", Better: "higher", On: "TACSD", Exact: true},
	{Name: "coverage.dir_cells", Unit: "count", Better: "higher", On: "A", Exact: true},
	{Name: "coverage.record_ns", Unit: "ns", Better: "lower", On: "TACSXD"},
	{Name: "coverage.merge_us", Unit: "us", Better: "lower", On: "TACSXD"},
	{Name: "core.issue_events_per_op", Unit: "count", Better: "lower", On: "T", Exact: true},
	{Name: "core.issue_ns_per_op", Unit: "ns", Better: "lower", On: "T"},
	{Name: "core.new_s", Unit: "s", Better: "lower", On: "TCSXD"},
	{Name: "core.reset_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "core.fork_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "core.snapshot_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "core.restore_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "core.audit_store_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "checker.online_ns_per_op", Unit: "ns", Better: "lower", On: "T"},
	{Name: "checker.stream_ns_per_op", Unit: "ns", Better: "lower", On: "TCSXD"},
	{Name: "checker.posthoc_ns_per_op", Unit: "ns", Better: "lower", On: "TCSXD"},
	{Name: "checker.snapshot_us", Unit: "us", Better: "lower", On: "TCSXD"},
	{Name: "harness.build_gpu_s", Unit: "s", Better: "lower", On: "TCSXD"},
	{Name: "harness.new_run_context_s", Unit: "s", Better: "lower", On: "CS"},
	{Name: "harness.run_seed_us_p50", Unit: "us", Better: "lower", On: "CS"},
	{Name: "harness.run_seed_us_p99", Unit: "us", Better: "lower", On: "C"},
	{Name: "harness.run_seed_samples", Unit: "count", Better: "higher", On: "CS", Exact: true},
	{Name: "harness.first_seed_after_corner_switch_us_p50", Unit: "us", Better: "lower", On: "S"},
	{Name: "harness.corner_switches", Unit: "count", Better: "lower", On: "CS", Exact: true},
	{Name: "harness.plan_us_per_batch", Unit: "us", Better: "lower", On: "CS"},
	{Name: "harness.apply_us_per_batch", Unit: "us", Better: "lower", On: "CS"},
	{Name: "explore.schedules", Unit: "count", Better: "lower", On: "X", Exact: true},
	{Name: "explore.pruned_paths", Unit: "count", Better: "lower", On: "X", Exact: true},
	{Name: "explore.choice_points", Unit: "count", Better: "lower", On: "X", Exact: true},
	{Name: "explore.paths_per_s", Unit: "1/s", Better: "higher", On: "X"},
	{Name: "explore.us_per_choice_point", Unit: "us", Better: "lower", On: "X"},
	{Name: "explore.alloc_kb_per_choice_point", Unit: "KB", Better: "lower", On: "X"},
	{Name: "campaignd.lease_ms_p50", Unit: "ms", Better: "lower", On: "D"},
	{Name: "campaignd.lease_ms_p99", Unit: "ms", Better: "lower", On: "D"},
	{Name: "campaignd.results_ms_p50", Unit: "ms", Better: "lower", On: "D"},
	{Name: "campaignd.results_ms_p99", Unit: "ms", Better: "lower", On: "D"},
	{Name: "campaignd.leases", Unit: "count", Better: "lower", On: "D", Exact: true},
	{Name: "campaignd.wire_bytes_per_lease", Unit: "B", Better: "lower", On: "D"},
	{Name: "campaignd.requeues", Unit: "count", Better: "lower", On: "D"},
	{Name: "campaignd.seeds_per_s_w1", Unit: "1/s", Better: "higher", On: "D"},
	{Name: "campaignd.scale_w2_over_w1", Unit: "ratio", Better: "higher", On: "D"},
	{Name: "campaignd.overhead_vs_direct", Unit: "ratio", Better: "lower", On: "D"},
	{Name: "apps.events_per_memop", Unit: "count", Better: "lower", On: "A", Exact: true},
	{Name: "apps.instructions_per_memop", Unit: "count", Better: "lower", On: "A", Exact: true},
	{Name: "directory.fires_per_op", Unit: "count", Better: "lower", On: "A", Exact: true},
	{Name: "directory.nacks_per_op", Unit: "count", Better: "lower", On: "A", Exact: true},
	{Name: "directory.probes_per_op", Unit: "count", Better: "lower", On: "A", Exact: true},
	{Name: "directory.stale_vics", Unit: "count", Better: "lower", On: "A", Exact: true},
	{Name: "dma.lines", Unit: "count", Better: "lower", On: "A", Exact: true},
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower", On: "TACSXD"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", On: "TACSXD"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower", On: "TACSXD"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", On: "TACSXD"},
}

// layersFor returns the per-layer metrics that apply to w.
func layersFor(w *workload) []metric {
	var out []metric
	for _, m := range perLayer {
		if strings.Contains(m.On, w.Class) {
			out = append(out, m)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, and 0 for no samples (results travel as JSON, which
// has no NaN). It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, and 0 for no samples.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}
