// Command gputester runs the autonomous DRF GPU tester against a
// VIPER memory system, the core workflow of the paper.
//
// Usage:
//
//	gputester [-caches small|large|mixed|default] [-cus 8]
//	          [-wfs 16] [-lanes 4] [-episodes 10] [-actions 100]
//	          [-syncvars 10] [-datavars 100000] [-seed 1]
//	          [-bug lostwrite|nonatomic|dropack|staleacquire]
//	          [-artifact-dir DIR] [-trace-depth 4096]
//	          [-heatmap] [-grid] [-v]
//	          [-campaign] [-campaign-mode uniform|swarm|directed]
//	          [-saturate-k 3] [-max-seeds 1024]
//	          [-batch 16] [-workers 0] [-campaign-fork]
//	gputester -serve ADDR [-serve-workers N] [-store DIR]
//	          [-report-dir DIR] [-lease-timeout 60s] [-drain-timeout 30s]
//	gputester -worker URL [-worker-slots N]
//	gputester -daemon URL [campaign flags] [-lease-seeds N]
//	gputester -explore [-explore-depth D] [-explore-budget N]
//	          [-workers 0] [workload flags] [-artifact-dir DIR]
//
// With -artifact-dir set, any checker failure serializes a replay
// artifact (JSON) into the directory; `replay <artifact>` re-executes
// it and asserts the failure reproduces bit-identically. The run itself
// is untraced: the artifact is captured by that same replay, whose
// re-run records the -trace-depth trace, and is written only once it
// has reproduced the run. The same flags apply to campaigns, where
// every failing seed writes its own artifact, and to -explore.
//
// With -campaign the tester runs a coverage-saturation campaign
// instead of a single seed: seeds -seed, -seed+1, ... execute on a
// pool of reusable run contexts until -saturate-k consecutive batches
// of -batch seeds add no new transition coverage (or -max-seeds is
// reached). -campaign-mode selects how batches draw their test
// configuration: uniform repeats the base config, swarm deals every
// batch a random configuration corner, and directed biases corner
// sampling toward corners whose recent batches activated cold
// coverage cells. All three modes are independent of -workers.
// -campaign-fork runs each seed by restoring the system from a warm
// snapshot (copy-on-write journals) instead of resetting it — same
// outcomes, about the same seeds/sec now that Reset costs what the
// caches hold (DESIGN.md §13.2).
//
// With -explore the tester runs bounded exhaustive schedule
// exploration (internal/explore) instead of a single random schedule:
// every interleaving of co-enabled coherence events is enumerated up to
// -explore-depth branching choice points per schedule, with DPOR-style
// sleep-set pruning, and the streaming axiomatic checker asserts every
// schedule. Exploration is only tractable for small configs — think 2-4
// wavefronts and a handful of variables. A violating schedule is
// serialized into the replay artifact's `schedule` field, which `replay`
// re-executes bit-identically. -workers explorers, each with its own
// run, split the schedule tree; the report is the same for any worker
// count except the cut, rewind and replay counts and their mean times.
// -explore is mutually exclusive with the campaign and daemon modes.
//
// The three daemon modes distribute campaigns across processes
// (internal/campaignd): -serve runs the control-plane daemon (HTTP
// API, local worker pool, content-addressed artifact store); -worker
// connects a worker process that takes seed leases from the daemon —
// each result's answer carries the next one, and an idle worker
// long-polls; -daemon submits the campaign described by the usual
// campaign flags to a running daemon and waits for its report. A
// distributed campaign's outcome is byte-identical to the local
// -campaign path for the same spec. SIGINT/SIGTERM drain the daemon
// gracefully: each campaign's current batch finishes (leases from dead
// workers requeue) and a batch run ahead of it is dropped, final
// reports are written, then workers are released.
//
// Exit status is 0 when the protocol passes, 1 when bugs are detected.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"drftest/internal/campaignd"
	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/explore"
	"drftest/internal/harness"
	"drftest/internal/viper"
)

// countFlag is a count flag's value and the least value it admits.
type countFlag struct {
	name   string
	n, min int
}

// validateFlags rejects contradictory flag combinations and values
// out of range up front with a one-line error, before any
// configuration or run state is built. The run modes (-explore,
// -campaign, -serve, -worker, -daemon) are pairwise mutually
// exclusive, and the exploration bounds and counts are at least their
// minimum: the library reads 0 as "use the default", which a flag must
// not do silently. -axiomcheck is refused where no report would carry
// its findings: campaign reports, local or daemon-run, have no place
// for them (the explorer checks every schedule online anyway and
// reports what the checker finds).
func validateFlags(exploreMode, campaign, axioms bool, serve, workerURL, daemonURL string, exploreDepth int, exploreBudget uint64, counts []countFlag) error {
	for _, c := range counts {
		if c.n < c.min {
			return fmt.Errorf("-%s %d: must be at least %d", c.name, c.n, c.min)
		}
	}
	if exploreDepth < 1 {
		return fmt.Errorf("-explore-depth %d: must be at least 1", exploreDepth)
	}
	if exploreBudget == 0 {
		return fmt.Errorf("-explore-budget 0: must be at least 1")
	}
	var modes []string
	if exploreMode {
		modes = append(modes, "-explore")
	}
	if campaign {
		modes = append(modes, "-campaign")
	}
	if serve != "" {
		modes = append(modes, "-serve")
	}
	if workerURL != "" {
		modes = append(modes, "-worker")
	}
	if daemonURL != "" {
		modes = append(modes, "-daemon")
	}
	if len(modes) > 1 {
		return fmt.Errorf("%s are mutually exclusive run modes; pick one", strings.Join(modes, " and "))
	}
	if axioms && len(modes) == 1 && modes[0] != "-explore" {
		return fmt.Errorf("-axiomcheck with %s: campaign reports drop the online checker's findings; use it on a single run", modes[0])
	}
	return nil
}

func main() {
	caches := flag.String("caches", "small", "cache sizing: small|large|mixed|default")
	protocolName := flag.String("protocol", "wt", "L2 protocol: wt (write-through VIPER) | wb (write-back VIPER-WB)")
	slices := flag.Int("l2slices", 1, "number of banked L2 slices")
	cus := flag.Int("cus", 8, "number of compute units")
	wfs := flag.Int("wfs", 16, "number of wavefronts")
	lanes := flag.Int("lanes", 4, "threads per wavefront (lockstep lanes)")
	episodes := flag.Int("episodes", 10, "episodes per wavefront thread")
	actions := flag.Int("actions", 100, "actions per episode (incl. acquire/release)")
	syncVars := flag.Int("syncvars", 10, "synchronization (atomic) locations")
	dataVars := flag.Int("datavars", 100_000, "regular data locations")
	seed := flag.Uint64("seed", 1, "random seed (same seed = identical run)")
	bug := flag.String("bug", "", "inject a protocol bug: "+strings.Join(viper.BugNames(), "|"))
	heatmap := flag.Bool("heatmap", false, "print transition hit-frequency heat maps")
	grid := flag.Bool("grid", false, "print transition classification grids")
	verbose := flag.Bool("v", false, "print request latencies and the transaction log tail")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report on stdout")
	axioms := flag.Bool("axiomcheck", false, "check every operation of a single run online against the SC-for-DRF episode axioms with the streaming axiomatic checker (-explore always does)")
	artifactDir := flag.String("artifact-dir", "", "write a failure-replay artifact (JSON) into this directory on any detected bug")
	traceDepth := flag.Int("trace-depth", harness.DefaultTraceCapacity, "execution-trace ring capacity used with -artifact-dir")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (pprof) to this file at exit")
	campaign := flag.Bool("campaign", false, "run a coverage-saturation campaign over seeds seed, seed+1, ...")
	campaignMode := flag.String("campaign-mode", "uniform", "campaign: config sampling policy: uniform|swarm|directed")
	saturateK := flag.Int("saturate-k", 3, "campaign: stop after this many consecutive batches with no new coverage (0 = run exactly max-seeds)")
	maxSeeds := flag.Int("max-seeds", harness.DefaultCampaignMaxSeeds, "campaign: hard cap on seeds run")
	batch := flag.Int("batch", 16, "campaign: seeds per batch between coverage merges")
	workers := flag.Int("workers", 0, "campaign and explore: worker pool size (0 = GOMAXPROCS); does not affect the outcome")
	campaignFork := flag.Bool("campaign-fork", false, "campaign: fork seeds from a warm system snapshot instead of resetting reused contexts")
	serve := flag.String("serve", "", "run the campaign control-plane daemon on this address (e.g. 127.0.0.1:7077)")
	serveWorkers := flag.Int("serve-workers", 0, "daemon: local worker pool size (0 = GOMAXPROCS, negative = remote workers only)")
	storeDir := flag.String("store", "", "daemon: content-addressed failure-artifact store directory")
	reportDir := flag.String("report-dir", "", "daemon: write each finished campaign's final report JSON into this directory")
	leaseTimeout := flag.Duration("lease-timeout", campaignd.DefaultLeaseTimeout, "daemon: reissue a lease when its result is this overdue")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "daemon: SIGTERM drain bound before in-flight batches are dropped")
	workerURL := flag.String("worker", "", "run as a campaign worker process against the daemon at this URL")
	workerSlots := flag.Int("worker-slots", 1, "worker: concurrent lease executors")
	daemonURL := flag.String("daemon", "", "submit the campaign to the daemon at this URL instead of running locally")
	leaseSeeds := flag.Int("lease-seeds", 0, "daemon submit: seeds per lease (0 = batch/4); never affects the outcome")
	exploreMode := flag.Bool("explore", false, "bounded exhaustive schedule exploration of one seed (small configs only)")
	exploreDepth := flag.Int("explore-depth", explore.DefaultDepth, "explore: max branching choice points per schedule")
	exploreBudget := flag.Uint64("explore-budget", explore.DefaultBudget, "explore: max schedules (completed + pruned) before stopping")
	flag.Parse()

	counts := []countFlag{
		{"cus", *cus, 1}, {"l2slices", *slices, 1}, {"wfs", *wfs, 1}, {"lanes", *lanes, 1},
		{"episodes", *episodes, 1}, {"actions", *actions, 2},
		{"syncvars", *syncVars, 1}, {"datavars", *dataVars, 1},
	}
	if err := validateFlags(*exploreMode, *campaign, *axioms, *serve, *workerURL, *daemonURL, *exploreDepth, *exploreBudget, counts); err != nil {
		fmt.Fprintf(os.Stderr, "gputester: %v\n", err)
		os.Exit(2)
	}

	stopProf, err := harness.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()
	// exit flushes the profiles before terminating: os.Exit skips
	// deferred calls, and a failing run is exactly the one worth
	// profiling.
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}

	var sysCfg viper.Config
	switch *caches {
	case "small":
		sysCfg = viper.SmallCacheConfig()
	case "large":
		sysCfg = viper.LargeCacheConfig()
	case "mixed":
		sysCfg = viper.MixedCacheConfig()
	case "default":
		sysCfg = viper.DefaultConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown cache config %q\n", *caches)
		os.Exit(2)
	}
	sysCfg.NumCUs = *cus
	sysCfg.NumL2Slices = *slices
	switch *protocolName {
	case "wt":
	case "wb":
		sysCfg.WriteBackL2 = true
	default:
		fmt.Fprintf(os.Stderr, "unknown protocol %q\n", *protocolName)
		os.Exit(2)
	}

	if *bug != "" {
		if sysCfg.Bugs, err = viper.ParseBug(*bug); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumWavefronts = *wfs
	cfg.ThreadsPerWF = *lanes
	cfg.EpisodesPerThread = *episodes
	cfg.ActionsPerEpisode = *actions
	cfg.NumSyncVars = *syncVars
	cfg.NumDataVars = *dataVars
	cfg.StreamCheck = *axioms
	if err := harness.ValidateRun(sysCfg, cfg, *traceDepth); err != nil {
		fmt.Fprintf(os.Stderr, "gputester: %v\n", err)
		exit(2)
	}

	switch {
	case *serve != "":
		exit(runServe(*serve, *serveWorkers, *storeDir, *reportDir, *leaseTimeout, *drainTimeout))
	case *workerURL != "":
		exit(runWorkerMode(*workerURL, *workerSlots))
	case *daemonURL != "":
		exit(runDaemonSubmit(*daemonURL, campaignd.Spec{
			SysCfg:     sysCfg,
			TestCfg:    cfg,
			Mode:       *campaignMode,
			BaseSeed:   *seed,
			BatchSize:  *batch,
			SaturateK:  *saturateK,
			MaxSeeds:   *maxSeeds,
			Fork:       *campaignFork,
			TraceDepth: *traceDepth,
			LeaseSeeds: *leaseSeeds,
		}, *jsonOut))
	}

	if *exploreMode {
		runExplore(explore.Config{
			SysCfg:      sysCfg,
			TestCfg:     cfg,
			Depth:       *exploreDepth,
			Budget:      *exploreBudget,
			Prune:       true,
			Workers:     *workers,
			TraceDepth:  *traceDepth,
			ArtifactDir: *artifactDir,
		}, *jsonOut, exit)
		return
	}

	if *campaign {
		mode, err := harness.ParseCampaignMode(*campaignMode)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		cc := harness.CampaignConfig{
			SysCfg:      sysCfg,
			TestCfg:     cfg,
			BaseSeed:    *seed,
			Workers:     *workers,
			BatchSize:   *batch,
			SaturateK:   *saturateK,
			MaxSeeds:    *maxSeeds,
			Fork:        *campaignFork,
			Mode:        mode,
			ArtifactDir: *artifactDir,
			TraceDepth:  *traceDepth,
		}
		if err := cc.Validate(); err != nil { // the corners past the base
			fmt.Fprintf(os.Stderr, "gputester: %v\n", err)
			exit(2)
		}
		runCampaign(cc, *protocolName, *caches, *jsonOut, *heatmap, exit)
		return
	}

	r := harness.NewGPURun(sysCfg, cfg)
	rep := r.Tester.Run()

	artifactPath := ""
	if *artifactDir != "" && !rep.Passed() {
		untraced := harness.NewGPUArtifact(sysCfg, cfg, r.Tester, rep, nil)
		untraced.TraceCapacity = *traceDepth
		art, err := replay(untraced)
		if err == nil {
			artifactPath, err = art.Write(*artifactDir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gputester: no replay artifact: %v\n", err)
		}
	}

	if *jsonOut {
		emitJSON(sysCfg, cfg, rep, r.Col, artifactPath, *bug, r.Sys.BugFirings())
		if !rep.Passed() {
			exit(1)
		}
		return
	}

	fmt.Printf("gputester: seed=%d protocol=%s caches=%s cus=%d wfs=%d lanes=%d episodes=%d actions=%d\n",
		*seed, *protocolName, *caches, *cus, *wfs, *lanes, *episodes, *actions)
	fmt.Printf("  ops issued     %d (episodes retired %d, false-shared lines %d)\n",
		rep.OpsIssued, rep.EpisodesRetired, rep.FalseSharedLines)
	fmt.Printf("  sim ticks      %d (kernel events %d)\n", rep.SimTicks, rep.EventsExecuted)
	fmt.Printf("  wall time      %s\n", rep.WallTime)
	if *bug != "" {
		fmt.Printf("  bug %s: fired %d times\n", *bug, r.Sys.BugFirings())
	}

	_, l2Name, impsb := harness.CampaignSpecs(sysCfg)
	l1 := r.Col.Matrix("GPU-L1")
	l2 := r.Col.Matrix(l2Name)
	fmt.Printf("  %s\n  %s\n", l1.Summarize(nil), l2.Summarize(impsb))
	if in := l1.InactiveCells(nil); len(in) > 0 {
		fmt.Printf("  L1 inactive: %v\n", in)
	}
	if in := l2.InactiveCells(impsb); len(in) > 0 {
		fmt.Printf("  L2 inactive: %v\n", in)
	}

	if *heatmap {
		l1.RenderHeatmap(os.Stdout, nil)
		l2.RenderHeatmap(os.Stdout, impsb)
	}
	if *grid {
		l1.RenderClassGrid(os.Stdout, nil)
		l2.RenderClassGrid(os.Stdout, impsb)
	}
	if *verbose {
		fmt.Printf("  sampler        %d calls, %d draws, %d found no variable\n",
			rep.Sampler.Calls, rep.Sampler.Draws, rep.Sampler.Empty)
		fmt.Println("request latencies (ticks):")
		for _, h := range r.Sys.Latencies().All() {
			fmt.Printf("  %s\n", h)
		}
		fmt.Println("last transactions:")
		fmt.Print(core.Dump(r.Tester.Log().Recent(32)))
	}

	axiomViolations := 0
	if *axioms {
		vs := rep.StreamViolations
		axiomViolations = len(vs)
		fmt.Printf("  axiomatic check: %d ops, %d episodes retired, %d violation(s)\n",
			rep.OpsCompleted, rep.EpisodesRetired, len(vs))
		for i, v := range vs {
			if i == 4 {
				fmt.Printf("    ... %d more\n", len(vs)-4)
				break
			}
			fmt.Printf("    %s\n", v)
		}
	}

	if !rep.Passed() || axiomViolations > 0 {
		fmt.Printf("\nFAIL: %d bug(s) detected online, %d axiom violation(s)\n", len(rep.Failures), axiomViolations)
		for _, f := range rep.Failures {
			fmt.Println(f.TableV())
		}
		if artifactPath != "" {
			fmt.Printf("replay artifact written to %s (re-run with: replay %s)\n", artifactPath, artifactPath)
		}
		exit(1)
	}
	fmt.Println("PASS: no coherence violations detected")
}

// replay makes the single run's artifact (harness.Replay); a test
// swaps it to hand the run a divergent capture.
var replay = harness.Replay

// runExplore runs bounded exhaustive schedule exploration of one seed
// and reports the result. Exit status 1 means a violating schedule was
// found.
func runExplore(cfg explore.Config, jsonOut bool, exit func(int)) {
	res, err := explore.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gputester: explore: %v\n", err)
		exit(2)
	}

	if jsonOut {
		out := map[string]any{
			"seed":    cfg.TestCfg.Seed,
			"prune":   cfg.Prune,
			"explore": res,
			"passed":  res.Violation == nil,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		if res.Violation != nil {
			exit(1)
		}
		return
	}

	fmt.Printf("gputester explore: seed=%d wfs=%d lanes=%d episodes=%d actions=%d syncvars=%d datavars=%d\n",
		cfg.TestCfg.Seed, cfg.TestCfg.NumWavefronts, cfg.TestCfg.ThreadsPerWF,
		cfg.TestCfg.EpisodesPerThread, cfg.TestCfg.ActionsPerEpisode,
		cfg.TestCfg.NumSyncVars, cfg.TestCfg.NumDataVars)
	fmt.Printf("  depth bound    %d choice points per schedule (budget %d, pruning %v)\n",
		res.Depth, res.Budget, cfg.Prune)
	fmt.Printf("  schedules      %d completed, %d abandoned as redundant, %d branches pruned\n",
		res.Schedules, res.PrunedPaths, res.PrunedBranches)
	fmt.Printf("  choice points  %d branching (depth-limited=%v, budget-exhausted=%v)\n",
		res.ChoicePoints, res.DepthLimited, res.BudgetExhausted)
	fmt.Printf("  cuts           %d at %d choice points (mean %.1f µs), %d rewinds replaying %d events (mean %.1f µs)\n",
		res.Cuts, res.ChoicePoints, res.NsPerCut/1e3, res.Restores, res.ReplayedEvents, res.NsPerRestore/1e3)
	fmt.Printf("  frontier       choice points per DFS depth %v\n", res.FrontierDepths)
	fmt.Printf("  sleep sets     %d of %d candidates asleep (hit rate %.3f)\n",
		res.PrunedBranches, res.Candidates, res.SleepHitRate)

	if v := res.Violation; v != nil {
		fmt.Printf("\nFAIL: violating schedule found after %d schedule(s) (schedule length %d, %d stream violation(s))\n",
			res.Schedules, len(v.Schedule), v.StreamViolations)
		if v.Failure.Kind != "" {
			fmt.Printf("  first failure: %s at tick %d: %s\n", v.Failure.Kind, v.Failure.Tick, v.Failure.Message)
		}
		if v.ArtifactPath != "" {
			fmt.Printf("replay artifact written to %s (re-run with: replay %s)\n", v.ArtifactPath, v.ArtifactPath)
		}
		exit(1)
	}
	if res.BudgetExhausted {
		fmt.Printf("\nPASS (partial): no violation in the %d schedules explored before the budget ran out\n",
			res.Schedules)
		return
	}
	fmt.Printf("\nPASS: no violation in any schedule up to depth %d (%d schedules explored)\n",
		res.Depth, res.Schedules)
}

// runCampaign executes a coverage-saturation campaign and reports the
// merged result. Exit status 1 means at least one seed found a bug.
func runCampaign(cc harness.CampaignConfig, protocolName, caches string, jsonOut, heatmap bool, exit func(int)) {
	res := harness.RunGPUCampaign(cc)

	if jsonOut {
		out := harness.CampaignReportJSON(res, cc.BaseSeed)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if len(res.Failures) > 0 {
			exit(1)
		}
		return
	}

	ctxMode := "reuse"
	if cc.Fork {
		ctxMode = "fork"
	}
	fmt.Printf("gputester campaign: mode=%s baseSeed=%d protocol=%s caches=%s batch=%d saturateK=%d maxSeeds=%d contexts=%s\n",
		res.Mode, cc.BaseSeed, protocolName, caches, cc.BatchSize, cc.SaturateK, cc.MaxSeeds, ctxMode)
	fmt.Printf("  seeds run      %d in %d batches (%.1f seeds/sec, wall %s)\n",
		res.SeedsRun, res.Batches, res.SeedsPerSec(), res.Wall.Round(time.Millisecond))
	if res.Saturated {
		fmt.Printf("  saturated      yes: %d consecutive batches added no coverage\n", cc.SaturateK)
	} else {
		fmt.Printf("  saturated      no: hit the %d-seed cap first\n", cc.MaxSeeds)
	}
	fmt.Printf("  saturation     %d cells after %d seeds (last productive seed)\n",
		res.CellsAtSaturation, res.SeedsToSaturation)
	fmt.Printf("  new cells      %v\n", res.NewCellsByBatch)
	if res.Mode != harness.CampaignUniform {
		for b, corner := range res.CornerByBatch {
			if res.NewCellsByBatch[b] == 0 {
				continue
			}
			names := res.NewCellNamesByBatch[b]
			if len(names) > 6 {
				names = append(append([]string{}, names[:6]...),
					fmt.Sprintf("... %d more", len(res.NewCellNamesByBatch[b])-6))
			}
			fmt.Printf("  batch %-3d      +%d cells  %s  (now %v)\n",
				b, res.NewCellsByBatch[b], corner, names)
		}
	}
	fmt.Printf("  ops issued     %d (kernel events %d)\n", res.TotalOps, res.TotalEvents)

	_, _, impsb := harness.CampaignSpecs(cc.SysCfg)
	fmt.Printf("  %s\n  %s\n", res.UnionL1.Summarize(nil), res.UnionL2.Summarize(impsb))
	if heatmap {
		res.UnionL1.RenderHeatmap(os.Stdout, nil)
		res.UnionL2.RenderHeatmap(os.Stdout, impsb)
	}

	if len(res.Failures) > 0 {
		n := 0
		for _, sf := range res.Failures {
			n += len(sf.Failures)
		}
		fmt.Printf("\nFAIL: %d bug(s) across %d seed(s)\n", n, len(res.Failures))
		for _, sf := range res.Failures {
			for _, f := range sf.Failures {
				fmt.Printf("seed %d:\n%s\n", sf.Seed, f.TableV())
			}
			if sf.ArtifactPath != "" {
				fmt.Printf("seed %d replay artifact: %s (re-run with: replay %s)\n", sf.Seed, sf.ArtifactPath, sf.ArtifactPath)
			}
			if sf.ArtifactErr != "" {
				fmt.Printf("seed %d has no replay artifact: %s\n", sf.Seed, sf.ArtifactErr)
			}
		}
		exit(1)
	}
	fmt.Println("PASS: no coherence violations detected across the campaign")
}

// runServe runs the campaign control-plane daemon until SIGINT or
// SIGTERM, then drains gracefully: in-flight batches finish (bounded
// by -drain-timeout), unfinished campaigns finalize at their merged
// prefix with reports written, workers are released with a shutdown
// status, and only then does the HTTP listener close.
func runServe(addr string, localWorkers int, storeDir, reportDir string, leaseTimeout, drainTimeout time.Duration) int {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	var store *campaignd.Store
	if storeDir != "" {
		var err error
		if store, err = campaignd.OpenStore(storeDir); err != nil {
			logf("gputester: %v", err)
			return 2
		}
	}
	if localWorkers == 0 {
		localWorkers = runtime.GOMAXPROCS(0)
	}
	if localWorkers < 0 {
		localWorkers = 0
	}
	srv := campaignd.NewServer(campaignd.Options{
		LocalWorkers: localWorkers,
		Store:        store,
		LeaseTimeout: leaseTimeout,
		ReportDir:    reportDir,
		Logf:         logf,
	})
	srv.Start()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logf("gputester: %v", err)
		return 2
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logf("gputester: serve: %v", err)
		}
	}()
	logf("gputester: campaign daemon listening on %s (local workers %d, store %q)",
		ln.Addr(), localWorkers, storeDir)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	logf("gputester: %s: draining (bound %s)", sig, drainTimeout)
	// Drain before closing the listener: workers learn about the
	// shutdown through their lease polls, and in-flight results must
	// still be accepted.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	srv.Drain(ctx)
	cancel()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	httpSrv.Shutdown(shutdownCtx)
	cancel()
	logf("gputester: daemon stopped")
	return 0
}

// runWorkerMode serves leases from a daemon until it shuts down (or
// SIGINT/SIGTERM, which finishes and posts the in-flight lease first).
func runWorkerMode(url string, slots int) int {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logf("gputester: worker pid %d serving %s (%d slot(s))", os.Getpid(), url, slots)
	if err := campaignd.RunWorker(ctx, url, campaignd.WorkerOptions{Slots: slots, Logf: logf}); err != nil {
		logf("gputester: %v", err)
		return 2
	}
	return 0
}

// runDaemonSubmit submits the campaign spec to a running daemon, waits
// for completion, and reports like the local -campaign path (exit 1 on
// failures, matching it).
func runDaemonSubmit(url string, spec campaignd.Spec, jsonOut bool) int {
	client := &campaignd.Client{BaseURL: url}
	ctx := context.Background()
	id, err := client.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gputester: %v\n", err)
		return 2
	}
	if !jsonOut {
		fmt.Printf("gputester: submitted campaign %s to %s\n", id, url)
	}
	report, err := client.WaitDone(ctx, id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gputester: %v\n", err)
		return 2
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		fmt.Printf("gputester campaign %s (daemon %s): mode=%v seeds=%v batches=%v saturated=%v aborted=%v\n",
			id, url, report["mode"], report["seedsRun"], report["batches"], report["saturated"], report["aborted"])
		fmt.Printf("  new cells %v\n", report["newCellsByBatch"])
		if fs, ok := report["failures"].([]any); ok && len(fs) > 0 {
			fmt.Printf("FAIL: %d failure record(s)\n", len(fs))
			for _, f := range fs {
				fm, _ := f.(map[string]any)
				fmt.Printf("  seed %v: %v at tick %v (artifact %v)\n", fm["seed"], fm["kind"], fm["tick"], fm["artifact"])
			}
		}
	}
	if passed, _ := report["passed"].(bool); !passed {
		return 1
	}
	return 0
}

// emitJSON writes a machine-readable run report for CI consumption. A
// run with an injected bug also reports its name and how many times it
// fired.
func emitJSON(sysCfg viper.Config, cfg core.Config, rep *core.Report, col *coverage.Collector, artifactPath, bug string, fired uint64) {
	_, l2Name, _ := harness.CampaignSpecs(sysCfg)
	failures := make([]map[string]any, 0, len(rep.Failures))
	for _, f := range rep.Failures {
		failures = append(failures, map[string]any{
			"kind":    f.Kind.String(),
			"tick":    f.Tick,
			"addr":    uint64(f.Addr),
			"message": f.Message,
		})
	}
	out := map[string]any{
		"passed":           rep.Passed(),
		"seed":             cfg.Seed,
		"opsIssued":        rep.OpsIssued,
		"opsCompleted":     rep.OpsCompleted,
		"episodesRetired":  rep.EpisodesRetired,
		"simTicks":         rep.SimTicks,
		"kernelEvents":     rep.EventsExecuted,
		"falseSharedLines": rep.FalseSharedLines,
		"samplerCalls":     rep.Sampler.Calls,
		"samplerDraws":     rep.Sampler.Draws,
		"samplerEmpty":     rep.Sampler.Empty,
		"wallSeconds":      rep.WallTime.Seconds(),
		"l1":               col.Matrix("GPU-L1"),
		"l2":               col.Matrix(l2Name),
		"failures":         failures,
	}
	if artifactPath != "" {
		out["artifact"] = artifactPath
	}
	if bug != "" {
		out["bug"], out["bugFired"] = bug, fired
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
