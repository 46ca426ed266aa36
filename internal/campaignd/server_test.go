package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/harness"
	"drftest/internal/sim"
	"drftest/internal/trace"
	"drftest/internal/viper"
)

// testSpec is a campaign small enough for e2e tests but large enough
// to span several batches and (in swarm/directed modes) several
// corners.
func testSpec(mode string) Spec {
	cfg := core.DefaultConfig()
	cfg.NumWavefronts = 6
	cfg.EpisodesPerThread = 6
	cfg.ActionsPerEpisode = 24
	cfg.NumSyncVars = 4
	cfg.NumDataVars = 64
	cfg.StoreFraction = 0.6
	cfg.KeepGoing = true
	return Spec{
		SysCfg:     viper.SmallCacheConfig(),
		TestCfg:    cfg,
		Mode:       mode,
		BaseSeed:   100,
		BatchSize:  8,
		SaturateK:  2,
		MaxSeeds:   64,
		LeaseSeeds: 3, // deliberately not a divisor of the batch size
	}
}

// canonical renders a campaign result for equality comparison across
// executors: wall-clock fields are zeroed and artifact capture
// stripped (a daemon with a store rewrites paths; the underlying
// failures must still match exactly).
func canonical(t testing.TB, res *harness.CampaignResult) string {
	t.Helper()
	r := *res
	r.Wall, r.TotalWall = 0, 0
	r.Failures = append([]harness.SeedFailure(nil), r.Failures...)
	for i := range r.Failures {
		r.Failures[i].Artifact = nil
		r.Failures[i].ArtifactPath = ""
		r.Failures[i].ArtifactErr = ""
	}
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// localResult runs the spec through the single-process campaign
// engine — the reference every distributed outcome must match
// byte-identically.
func localResult(t *testing.T, spec Spec, workers int) *harness.CampaignResult {
	t.Helper()
	cfg, err := spec.CampaignConfig()
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	cfg.Workers = workers
	cfg.CaptureArtifacts = false
	return harness.RunGPUCampaign(cfg)
}

// daemonResult runs the spec on an in-process daemon with a local
// worker pool and returns the result after draining.
func daemonResult(t *testing.T, spec Spec, localWorkers int, opts Options) *harness.CampaignResult {
	t.Helper()
	res, _ := runDaemon(t, spec, localWorkers, opts)
	return res
}

// runDaemon is daemonResult that also returns the drained server.
func runDaemon(t *testing.T, spec Spec, localWorkers int, opts Options) (*harness.CampaignResult, *Server) {
	t.Helper()
	opts.LocalWorkers = localWorkers
	opts.Logf = t.Logf
	srv := NewServer(opts)
	srv.Start()
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := srv.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	srv.Drain(ctx)
	return res, srv
}

// finished reports (under the server lock) whether a campaign is done.
func finished(srv *Server, id string) bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.campaigns[id].finished()
}

// TestDaemonMatchesLocal is the tentpole determinism pin: the same
// spec produces byte-identical campaign outcomes — union matrices,
// batch records, failure sets, saturation point — whether run by the
// single-process engine or sharded into leases across daemon worker
// pools of different sizes.
func TestDaemonMatchesLocal(t *testing.T) {
	for _, mode := range []string{"uniform", "swarm", "directed"} {
		t.Run(mode, func(t *testing.T) {
			spec := testSpec(mode)
			want := canonical(t, localResult(t, spec, 2))
			for _, workers := range []int{1, 4} {
				got := canonical(t, daemonResult(t, spec, workers, Options{}))
				if got != want {
					t.Errorf("daemon with %d local workers diverged from local run\nlocal:  %.200s\ndaemon: %.200s",
						workers, want, got)
				}
			}
		})
	}
}

// TestRunAheadOnlyWhereThePlanIsFixed: with 2 workers, a uniform or
// swarm campaign issues leases of the next batch while the current one
// drains — the slot that finds the current batch all out would idle
// otherwise — and a directed campaign, whose next corner follows the
// current batch's yield, never does. The outcome is the local one
// either way.
func TestRunAheadOnlyWhereThePlanIsFixed(t *testing.T) {
	for _, mode := range []string{"uniform", "swarm", "directed"} {
		spec := testSpec(mode)
		res, srv := runDaemon(t, spec, 2, Options{})
		if got, want := canonical(t, res), canonical(t, localResult(t, spec, 2)); got != want {
			t.Errorf("%s: daemon diverged from local run", mode)
		}
		ahead := srv.metrics.LeasesAhead.Load()
		if (ahead > 0) != (mode != "directed") {
			t.Errorf("%s: %d leases issued ahead of their batch", mode, ahead)
		}
	}
}

// TestWorkerDropsFinishedCampaignContexts: a worker slot keeps a run
// context only for campaigns the daemon still runs, so one slot that
// serves 20 back-to-back campaigns ends up holding one context, not 20.
func TestWorkerDropsFinishedCampaignContexts(t *testing.T) {
	srv := NewServer(Options{Logf: t.Logf})
	runners := newRunnerSet()
	for i := 0; i < 20; i++ {
		spec := testSpec("uniform")
		spec.BaseSeed += uint64(i)
		spec.BatchSize, spec.MaxSeeds, spec.LeaseSeeds = 2, 2, 2
		id, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp := srv.nextLease("w", time.Second)
		for !finished(srv, id) {
			if resp.Status != StatusLease {
				t.Fatalf("campaign %s: %+v", id, resp)
			}
			res, err := runners.run(&resp)
			if err != nil {
				t.Fatal(err)
			}
			res.Worker = "w"
			if resp, err = srv.submitResult(res); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(runners.runners); n > 1 {
			t.Fatalf("after %d campaigns the slot holds %d contexts", i+1, n)
		}
	}
	if len(runners.runners) != 1 {
		t.Errorf("slot holds %d contexts, want the last campaign's", len(runners.runners))
	}
}

// TestWireSchemaRefusedByName: a schema-1 worker's lease poll and
// result are refused with an error naming both schemas, so it stops
// instead of ignoring the leases schema 2 hands out in result answers.
func TestWireSchemaRefusedByName(t *testing.T) {
	srv := NewServer(Options{Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := srv.Submit(testSpec("uniform")); err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string]string{
		"/lease":   `{"schema":1,"worker":"old","waitMs":1}`,
		"/results": `{"schema":1,"campaign":"c001","batch":0,"lease":0,"seeds":3}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(string(msg), "wire schema 1") || !strings.Contains(string(msg), "schema 2") {
			t.Errorf("%s with schema 1: status %d, body %q; want 400 naming schemas 1 and 2", path, resp.StatusCode, msg)
		}
	}
	if n := srv.metrics.LeasesIssued.Load(); n != 0 {
		t.Errorf("%d leases issued to a schema-1 worker", n)
	}
}

// TestMalformedResultLeavesDeltaUntouched: a result with an
// out-of-range sparse cell is refused before any of its cells reaches
// its batch's delta — valid L1 cells included — and the lease stays
// open for the well-formed copy.
func TestMalformedResultLeavesDeltaUntouched(t *testing.T) {
	srv := NewServer(Options{Logf: t.Logf})
	id, err := srv.Submit(testSpec("uniform"))
	if err != nil {
		t.Fatal(err)
	}
	resp := srv.nextLease("w", time.Second)
	good, err := newRunnerSet().run(&resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(good.L1) == 0 {
		t.Fatal("lease recorded no L1 coverage")
	}
	bad := *good
	bad.L2 = append(append([]SparseCell(nil), good.L2...), SparseCell{S: 1 << 20, E: 0, N: 1})
	if _, err := srv.submitResult(&bad); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range cell: %v", err)
	}
	srv.mu.Lock()
	b := srv.campaigns[id].batches[0]
	empty := harness.BatchDelta{
		L1: coverage.NewMatrix(b.delta.L1.Spec), L2: coverage.NewMatrix(b.delta.L2.Spec),
		Failures: b.delta.Failures,
	}
	if !reflect.DeepEqual(b.delta, empty) || b.shards[0].done || b.pending != len(b.shards) {
		t.Errorf("a refused result changed its batch: delta %+v, shard done %v, pending %d",
			b.delta, b.shards[0].done, b.pending)
	}
	srv.mu.Unlock()
	if _, err := srv.submitResult(good); err != nil {
		t.Fatalf("well-formed copy: %v", err)
	}
	if n := srv.metrics.LeasesCompleted.Load(); n != 1 {
		t.Errorf("%d leases completed, want 1", n)
	}
}

// TestDaemonFindsInjectedBug pins the failure path end to end: a
// bug-injected distributed campaign reports exactly the failures the
// local engine finds, and with a store attached every failing seed's
// artifact is persisted content-addressed and the failure rewritten to
// its store path.
func TestDaemonFindsInjectedBug(t *testing.T) {
	spec := testSpec("uniform")
	spec.SysCfg.Bugs.LostWriteRace = true
	spec.MaxSeeds = 24
	spec.SaturateK = 0 // fixed-length: every executor runs exactly 24 seeds

	local := localResult(t, spec, 2)
	if len(local.Failures) == 0 {
		t.Fatal("injected lostwrite bug found no failures locally; test spec too small")
	}

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := daemonResult(t, spec, 2, Options{Store: store})
	if got, want := canonical(t, res), canonical(t, local); got != want {
		t.Errorf("bug campaign diverged\nlocal:  %.200s\ndaemon: %.200s", want, got)
	}
	if store.Len() == 0 {
		t.Fatal("store holds no artifacts after a failing campaign")
	}
	for _, sf := range res.Failures {
		if sf.ArtifactPath == "" {
			t.Errorf("seed %d: no artifact path (err %q)", sf.Seed, sf.ArtifactErr)
			continue
		}
		if !strings.Contains(sf.ArtifactPath, "objects") {
			t.Errorf("seed %d: artifact %s not in the store", sf.Seed, sf.ArtifactPath)
		}
		if _, err := harness.LoadArtifact(sf.ArtifactPath); err != nil {
			t.Errorf("seed %d: stored artifact unreadable: %v", sf.Seed, err)
		}
	}
}

// TestDaemonRemoteWorkersMatchLocal is the multi-process e2e pin: a
// daemon with no local pool, serving two genuine worker subprocesses
// over HTTP, produces the byte-identical outcome — and the workers
// exit cleanly when the daemon drains.
func TestDaemonRemoteWorkersMatchLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e in -short mode")
	}
	spec := testSpec("directed")
	spec.SysCfg.Bugs.LostWriteRace = true
	spec.MaxSeeds = 32
	want := canonical(t, localResult(t, spec, 2))

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{Store: store, Logf: t.Logf, ReportDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w1 := startWorkerProcess(t, ts.URL, "w1", 1)
	w2 := startWorkerProcess(t, ts.URL, "w2", 1)

	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	res, err := srv.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got := canonical(t, res); got != want {
		t.Errorf("remote-worker campaign diverged from local run\nlocal:  %.200s\ndaemon: %.200s", want, got)
	}
	if len(res.Failures) == 0 {
		t.Error("remote campaign found no failures for the injected bug")
	}

	srv.Drain(ctx)
	if err := w1.Wait(); err != nil {
		t.Errorf("worker 1 exit: %v", err)
	}
	if err := w2.Wait(); err != nil {
		t.Errorf("worker 2 exit: %v", err)
	}
}

// TestLeaseRequeue pins the fault-tolerance path: a lease issued to a
// worker that dies is reissued after its timeout to the next worker
// that asks, the campaign completes with the exact local outcome, and
// the late duplicate submission from the "dead" worker is dropped. It
// runs with the live worker taking every lease from a poll, and with
// it taking the leases its result answers hand out.
func TestLeaseRequeue(t *testing.T) {
	for _, chained := range []bool{false, true} {
		t.Run(map[bool]string{false: "polled", true: "chained"}[chained], func(t *testing.T) {
			testLeaseRequeue(t, chained)
		})
	}
}

func testLeaseRequeue(t *testing.T, chained bool) {
	spec := testSpec("uniform")
	spec.MaxSeeds = 16
	spec.SaturateK = 0
	spec.LeaseTimeoutMs = 100

	srv := NewServer(Options{Logf: t.Logf})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker takes the first lease and vanishes.
	doomed := srv.nextLease("doomed", time.Second)
	if doomed.Status != StatusLease {
		t.Fatalf("first poll: %+v", doomed)
	}

	// A live worker drains the campaign; the stolen lease must come
	// back to it once the 100ms timeout expires.
	runners := newRunnerSet()
	var reissuedCopy *LeaseResult
	var resp LeaseResponse
	for !finished(srv, id) {
		if resp.Status != StatusLease {
			resp = srv.nextLease("live", 2*time.Second)
			if resp.Status == StatusWait {
				continue
			}
			if resp.Status != StatusLease {
				t.Fatalf("poll: %+v", resp)
			}
		}
		res, err := runners.run(&resp)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Lease.Batch == doomed.Lease.Batch && resp.Lease.Lease == doomed.Lease.Lease {
			cp := *res // the reissue: keep a duplicate to submit late
			reissuedCopy = &cp
		}
		res.Worker = "live"
		res.Leaving = !chained
		if resp, err = srv.submitResult(res); err != nil {
			t.Fatal(err)
		}
		if resp.Status == StatusLease && !chained {
			t.Fatalf("a leaving worker's result was answered with a lease: %+v", resp.Lease)
		}
	}
	if reissuedCopy == nil {
		t.Fatal("expired lease was never reissued")
	}
	if srv.metrics.LeasesExpired.Load() == 0 {
		t.Error("no lease expiry counted")
	}
	if n := srv.metrics.LeasesChained.Load(); (n > 0) != chained {
		t.Errorf("%d leases chained", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := srv.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(t, res), canonical(t, localResult(t, spec, 1)); got != want {
		t.Errorf("requeued campaign diverged from local run")
	}

	// The dead worker's duplicate arrives after the merge: dropped, not
	// double-counted.
	dropped := srv.metrics.ResultsDropped.Load()
	if _, err := srv.submitResult(reissuedCopy); err != nil {
		t.Errorf("duplicate submission errored: %v", err)
	}
	if got := srv.metrics.ResultsDropped.Load(); got != dropped+1 {
		t.Errorf("duplicate not counted as dropped: %d -> %d", dropped, got)
	}
}

// TestDrainStopsAtBatchBoundary pins graceful shutdown: draining
// mid-campaign finishes the current batch, drops the batch run ahead
// of it, finalizes the campaign at a whole-batch prefix of the
// canonical local run, and writes the final report — both with a busy
// local pool and with every lease of the current batch and one of the
// next out when the drain starts.
func TestDrainStopsAtBatchBoundary(t *testing.T) {
	spec := testSpec("swarm")
	spec.SaturateK = 0
	spec.MaxSeeds = 512 // far more work than the drain will allow
	full := localResult(t, spec, 2)

	t.Run("pool", func(t *testing.T) {
		reportDir := t.TempDir()
		srv := NewServer(Options{LocalWorkers: 2, Logf: t.Logf, ReportDir: reportDir})
		srv.Start()
		id, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Let some batches merge, then pull the plug.
		deadline := time.Now().Add(60 * time.Second)
		for {
			srv.mu.Lock()
			batches := srv.campaigns[id].state.Progress().Batches
			srv.mu.Unlock()
			if batches >= 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no batches merged before drain deadline")
			}
			time.Sleep(5 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Drain(ctx)
		checkDrained(t, srv, id, spec, full, reportDir)
	})

	t.Run("run ahead", func(t *testing.T) {
		reportDir := t.TempDir()
		srv := NewServer(Options{Logf: t.Logf, ReportDir: reportDir})
		id, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Batches 0 and 1 merge; then every lease of batch 2 and the
		// first of batch 3 are out when the drain starts.
		runners := newRunnerSet()
		var held []*LeaseResult
		for {
			resp := srv.nextLease("w", time.Second)
			if resp.Status != StatusLease {
				t.Fatalf("poll: %+v", resp)
			}
			res, err := runners.run(&resp)
			if err != nil {
				t.Fatal(err)
			}
			res.Leaving = true
			if resp.Lease.Batch >= 2 {
				held = append(held, res)
				if resp.Lease.Batch == 3 {
					break
				}
				continue
			}
			if _, err := srv.submitResult(res); err != nil {
				t.Fatal(err)
			}
		}
		if srv.metrics.LeasesAhead.Load() == 0 {
			t.Fatal("batch 3's lease was not counted as issued ahead")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained := make(chan struct{})
		go func() {
			srv.Drain(ctx)
			close(drained)
		}()
		for {
			srv.mu.Lock()
			draining := srv.draining
			srv.mu.Unlock()
			if draining {
				break
			}
			time.Sleep(time.Millisecond)
		}
		// Batch 3's result first: it was dropped with its batch.
		dropped := srv.metrics.ResultsDropped.Load()
		for i := len(held) - 1; i >= 0; i-- {
			res := held[i]
			res.Leaving = false
			resp, err := srv.submitResult(res)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status == StatusLease {
				t.Fatalf("a draining daemon answered a result with lease %+v", resp.Lease)
			}
		}
		if got := srv.metrics.ResultsDropped.Load(); got != dropped+1 {
			t.Errorf("%d results dropped, want batch 3's one", got-dropped)
		}
		<-drained
		checkDrained(t, srv, id, spec, full, reportDir)
		if res, _ := srv.Wait(ctx, id); res.Batches != 3 {
			t.Errorf("drain ended the campaign after %d batches, want 3", res.Batches)
		}
	})
}

// checkDrained checks that a drained campaign is a nonzero,
// truncated, whole-batch prefix of the canonical run full, and that its
// final report is written and marked aborted.
func checkDrained(t *testing.T, srv *Server, id string, spec Spec, full *harness.CampaignResult, reportDir string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := srv.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.SeedsRun == 0 || res.SeedsRun%spec.BatchSize != 0 {
		t.Errorf("drained campaign ran %d seeds; want a nonzero multiple of %d", res.SeedsRun, spec.BatchSize)
	}
	if res.SeedsRun >= spec.MaxSeeds {
		t.Errorf("drain did not truncate the campaign (%d seeds)", res.SeedsRun)
	}
	for b := 0; b < res.Batches; b++ {
		if res.NewCellsByBatch[b] != full.NewCellsByBatch[b] || res.CornerByBatch[b] != full.CornerByBatch[b] {
			t.Errorf("batch %d diverges from canonical prefix: (%d, %s) vs (%d, %s)", b,
				res.NewCellsByBatch[b], res.CornerByBatch[b],
				full.NewCellsByBatch[b], full.CornerByBatch[b])
		}
	}
	if !reflect.DeepEqual(res.UnionL1.Hits, prefixUnion(t, spec, res.Batches).UnionL1.Hits) {
		t.Error("drained campaign's L1 union differs from the canonical prefix's")
	}

	data, err := os.ReadFile(filepath.Join(reportDir, id+".json"))
	if err != nil {
		t.Fatalf("final report: %v", err)
	}
	var report map[string]any
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("final report: %v", err)
	}
	if aborted, _ := report["aborted"].(bool); !aborted {
		t.Error("drained campaign's report not marked aborted")
	}
}

// prefixUnion runs the first batches of spec's campaign locally.
func prefixUnion(t *testing.T, spec Spec, batches int) *harness.CampaignResult {
	t.Helper()
	spec.MaxSeeds = batches * spec.BatchSize
	return localResult(t, spec, 1)
}

// TestMetricsAndHTTPSurface walks the HTTP API end to end with a
// 2-slot worker over HTTP: submit over POST, status long-poll, result
// report, metrics counters consistent with the campaign outcome and
// with the leases seen on the wire — every issued lease answered
// either a poll or a result — and pprof reachable.
func TestMetricsAndHTTPSurface(t *testing.T) {
	srv := NewServer(Options{Logf: t.Logf})
	var polled, chained atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp LeaseResponse
		if json.Unmarshal(rec.Body.Bytes(), &resp) == nil && resp.Status == StatusLease {
			switch r.URL.Path {
			case "/lease":
				polled.Add(1)
			case "/results":
				chained.Add(1)
			}
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(context.Background(), ts.URL, WorkerOptions{ID: "w", Slots: 2, Logf: t.Logf})
	}()
	client := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	spec := testSpec("uniform")
	id, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Status(ctx, "nope", 0); err == nil {
		t.Error("status of unknown campaign did not error")
	}
	report, err := client.WaitDone(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if passed, _ := report["passed"].(bool); !passed {
		t.Errorf("clean campaign reported failure: %v", report["failures"])
	}
	res, err := srv.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(report["seedsRun"].(float64)); got != res.SeedsRun {
		t.Errorf("report seedsRun %d, result %d", got, res.SeedsRun)
	}

	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 0
	for _, n := range res.NewCellsByBatch {
		wantCells += n
	}
	checks := map[string]int{
		"seedsRun":           res.SeedsRun,
		"batchesMerged":      res.Batches,
		"cellsActivated":     wantCells,
		"campaignsSubmitted": 1,
		"campaignsCompleted": 1,
	}
	for key, want := range checks {
		if got := int(m[key].(float64)); got != want {
			t.Errorf("metrics[%s] = %d, want %d", key, got, want)
		}
	}
	if got := int(m["leasesCompleted"].(float64)); got < res.Batches {
		t.Errorf("leasesCompleted %d < batches %d", got, res.Batches)
	}
	issued, chainedMetric := int64(m["leasesIssued"].(float64)), int64(m["leasesChained"].(float64))
	if chainedMetric != chained.Load() || issued != polled.Load()+chained.Load() {
		t.Errorf("leasesIssued %d, leasesChained %d; on the wire %d polled + %d chained",
			issued, chainedMetric, polled.Load(), chained.Load())
	}
	if chainedMetric == 0 {
		t.Error("no lease was handed out in a result answer")
	}

	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof endpoint: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof endpoint status %d", resp.StatusCode)
	}

	srv.Drain(ctx)
	if err := <-workerDone; err != nil {
		t.Errorf("worker: %v", err)
	}
}

// TestSubmitRejectsInvalidSysCfg: a spec whose sysCfg no system can be
// built from — absent, or with a cache geometry cache.NewArray would
// panic on, or a line too short for the word the first store writes
// into it — or whose testCfg no tester can be built from — an address
// range too small for its variables, a negative count — is refused at
// admission with a 400 naming the field, by Submit and by POST
// /campaigns alike, instead of admitted to panic a worker inside
// viper.NewSystem or core.New; a worker handed such a spec refuses it
// the same way. The same range is fine for a uniform campaign and for
// a swarm one refused only because a corner with more variables
// outgrows it. So is a count no worker could allocate — one past each
// admission limit, at the base or only in a corner that multiplies it —
// and a latency so long that tick arithmetic wraps (the jitter window
// killed the daemon in rng.Intn, the request latency made every seed a
// false "no forward progress"), or a bug window that schedules past the
// end of time, or a write-through-only bug under the write-back L2
// (which would never fire, so the campaign would report PASS), and so
// is a config a correct protocol cannot run without
// a false deadlock report (harness.ValidateRun's deadlock rule), while
// a spec sitting on every limit at once is admitted.
func TestSubmitRejectsInvalidSysCfg(t *testing.T) {
	srv := NewServer(Options{Logf: t.Logf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	mutate := func(f func(*Spec)) []byte {
		s := testSpec("uniform")
		f(&s)
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"empty sysCfg", "NumCUs", []byte(`{"baseSeed":1}`)},
		{"zero L1", "L1", mutate(func(s *Spec) { s.SysCfg.L1 = cache.Config{} })},
		{"non-power-of-two L2", "L2", mutate(func(s *Spec) { s.SysCfg.L2.Assoc = 3 })},
		{"L2 smaller than a set", "L2", mutate(func(s *Spec) { s.SysCfg.L2.SizeBytes = 64 })},
		{"line size mismatch", "line size", mutate(func(s *Spec) { s.SysCfg.L2.LineSize = 128 })},
		{"line smaller than a word", "L1: cache: LineSize 2", mutate(func(s *Spec) { s.SysCfg.L1.LineSize, s.SysCfg.L2.LineSize = 2, 2 })},
		{"address range too small", "AddressRangeBytes", mutate(func(s *Spec) {
			s.TestCfg.NumDataVars, s.TestCfg.AddressRangeBytes = 64, 16
		})},
		{"address range too small for the default counts", "AddressRangeBytes", mutate(func(s *Spec) {
			s.TestCfg.NumSyncVars, s.TestCfg.NumDataVars, s.TestCfg.AddressRangeBytes = 0, 0, 4096
		})},
		{"address range too small for a corner", "atomics=spread", mutate(func(s *Spec) {
			s.Mode = "swarm"
			s.TestCfg.NumSyncVars, s.TestCfg.NumDataVars, s.TestCfg.AddressRangeBytes = 4, 64, 68*4
		})},
		{"negative variable count", "NumDataVars", mutate(func(s *Spec) { s.TestCfg.NumDataVars = -1 })},
		{"negative wavefront count", "NumWavefronts", mutate(func(s *Spec) { s.TestCfg.NumWavefronts = -2 })},
		{"too many data variables", "NumDataVars 1099511627776", mutate(func(s *Spec) { s.TestCfg.NumDataVars = 1 << 40 })},
		{"too many sync variables", "NumSyncVars", mutate(func(s *Spec) { s.TestCfg.NumSyncVars = core.MaxVariables + 1 })},
		{"too many variables in all", "NumSyncVars + NumDataVars", mutate(func(s *Spec) {
			s.TestCfg.NumSyncVars, s.TestCfg.NumDataVars = 1, core.MaxVariables
		})},
		{"address range too large", "AddressRangeBytes", mutate(func(s *Spec) { s.TestCfg.AddressRangeBytes = core.MaxRangeBytes + 1 })},
		{"too many wavefronts", "NumWavefronts", mutate(func(s *Spec) { s.TestCfg.NumWavefronts = core.MaxThreads + 1 })},
		{"too many lanes", "ThreadsPerWF", mutate(func(s *Spec) { s.TestCfg.ThreadsPerWF = core.MaxThreads + 1 })},
		{"too many threads in all", "NumWavefronts × ThreadsPerWF", mutate(func(s *Spec) {
			s.TestCfg.NumWavefronts, s.TestCfg.ThreadsPerWF = core.MaxThreads, 2
		})},
		{"too many threads in a corner", "scale=wide", mutate(func(s *Spec) {
			s.Mode = "swarm"
			s.TestCfg.NumWavefronts, s.TestCfg.ThreadsPerWF = core.MaxThreads/64, 64
			// So many threads queue past the default deadlock threshold
			// at the base already (harness.ValidateRun).
			s.TestCfg.DeadlockThreshold = math.MaxUint64
		})},
		{"episodes too long", "ActionsPerEpisode", mutate(func(s *Spec) { s.TestCfg.ActionsPerEpisode = core.MaxActions + 1 })},
		{"log too large", "LogCapacity", mutate(func(s *Spec) { s.TestCfg.LogCapacity = trace.MaxCapacity + 1 })},
		{"trace ring too large", "traceDepth", mutate(func(s *Spec) { s.TraceDepth = trace.MaxCapacity + 1 })},
		{"too many CUs", "NumCUs", mutate(func(s *Spec) { s.SysCfg.NumCUs = viper.MaxUnits + 1 })},
		{"too many L2 slices", "NumL2Slices", mutate(func(s *Spec) { s.SysCfg.NumL2Slices = viper.MaxUnits + 1 })},
		{"L1 too large", "L1: cache: SizeBytes", mutate(func(s *Spec) { s.SysCfg.L1.SizeBytes = 2 * cache.MaxSizeBytes })},
		{"L2 too large", "L2: cache: SizeBytes", mutate(func(s *Spec) { s.SysCfg.L2.SizeBytes = 2 * cache.MaxSizeBytes })},
		{"request latency too long", "ReqLatency 18446744073709551615", mutate(func(s *Spec) { s.SysCfg.ReqLatency = 1<<64 - 1 })},
		{"response latency too long", "RespLatency", mutate(func(s *Spec) { s.SysCfg.RespLatency = sim.MaxDelay + 1 })},
		{"jitter window too wide", "RespJitter 9223372036854775807", mutate(func(s *Spec) { s.SysCfg.RespJitter = 1<<63 - 1 })},
		{"L1 response latency too long", "L1RespLatency", mutate(func(s *Spec) { s.SysCfg.L1RespLatency = sim.MaxDelay + 1 })},
		{"memory latency too long", "Mem: memctrl: AccessLatency", mutate(func(s *Spec) { s.SysCfg.Mem.AccessLatency = sim.MaxDelay + 1 })},
		{"memory service period too long", "Mem: memctrl: ServicePeriod", mutate(func(s *Spec) { s.SysCfg.Mem.ServicePeriod = sim.MaxDelay + 1 })},
		{"bug window past the end of time", "Bugs.NonAtomicWindow", mutate(func(s *Spec) { s.SysCfg.Bugs.NonAtomicWindow = 1<<64 - 1 })},
		{"lost write under the write-back L2", "bug lostwrite is write-through only: the write-back L2 (WriteBackL2, protocol wb)", mutate(func(s *Spec) {
			s.SysCfg.WriteBackL2, s.SysCfg.Bugs.LostWriteRace = true, true
		})},
		{"dropped ack under the write-back L2", "bug dropack is write-through only: the write-back L2 (WriteBackL2, protocol wb)", mutate(func(s *Spec) {
			s.SysCfg.WriteBackL2, s.SysCfg.Bugs.DropWBAckEvery = true, 20
		})},
		{"links too slow for the deadlock threshold", "DeadlockThreshold", mutate(func(s *Spec) {
			s.TestCfg.NumWavefronts = 2
			s.SysCfg.ReqLatency, s.SysCfg.RespLatency = 1<<18, 1<<18
		})},
		{"memory too slow for the deadlock threshold", "Mem.ServicePeriod", mutate(func(s *Spec) {
			s.TestCfg = core.DefaultConfig()
			s.SysCfg.Mem.ServicePeriod = 20_000
		})},
	} {
		var spec Spec
		if err := json.Unmarshal(tc.body, &spec); err != nil {
			t.Fatal(err)
		}
		if id, err := srv.Submit(spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Submit = %q, %v; want an error naming %q", tc.name, id, err, tc.want)
		}
		// A worker handed the spec by a daemon that did admit it.
		if _, err := newRunnerSet().run(&LeaseResponse{Lease: &Lease{Campaign: "c001", Count: 1}, Spec: &spec}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: worker run = %v; want an error naming %q", tc.name, err, tc.want)
		}
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: POST status %d, body %q; want 400 naming %q", tc.name, resp.StatusCode, msg, tc.want)
		}
	}
	if n := srv.metrics.CampaignsSubmitted.Load(); n != 0 {
		t.Errorf("%d campaigns admitted, want none", n)
	}
	fits := testSpec("uniform")
	fits.TestCfg.NumSyncVars, fits.TestCfg.NumDataVars, fits.TestCfg.AddressRangeBytes = 4, 64, 68*4
	if _, err := fits.CampaignConfig(); err != nil {
		t.Errorf("a range that exactly fits a uniform campaign's variables was refused: %v", err)
	}
	// Every limit at once. Admission only: nothing here may build it.
	// Two cross-field rules make "at once" two specs (harness.ValidateRun):
	// latencies this long put every request's worst-case wait past the
	// default deadlock threshold, so it is raised out of reach; and a
	// run of threads × actions past 2^32 operations could wrap a sync
	// variable, so the thread limit and the action limit are each met
	// with the other at its least.
	atLimit := testSpec("uniform")
	atLimit.SysCfg.NumCUs, atLimit.SysCfg.NumL2Slices = viper.MaxUnits, viper.MaxUnits
	atLimit.SysCfg.L1.SizeBytes, atLimit.SysCfg.L2.SizeBytes = cache.MaxSizeBytes, cache.MaxSizeBytes
	atLimit.TestCfg.NumSyncVars, atLimit.TestCfg.NumDataVars = 1, core.MaxVariables-1
	atLimit.TestCfg.AddressRangeBytes = core.MaxRangeBytes
	atLimit.TestCfg.LogCapacity = trace.MaxCapacity
	atLimit.TraceDepth = trace.MaxCapacity
	atLimit.SysCfg.ReqLatency, atLimit.SysCfg.RespLatency, atLimit.SysCfg.RespJitter = sim.MaxDelay, sim.MaxDelay, sim.MaxDelay
	atLimit.SysCfg.L1RespLatency, atLimit.SysCfg.Mem.AccessLatency, atLimit.SysCfg.Mem.ServicePeriod = sim.MaxDelay, sim.MaxDelay, sim.MaxDelay
	atLimit.TestCfg.DeadlockThreshold = math.MaxUint64
	atLimit.TestCfg.EpisodesPerThread = 1
	threads, actions := atLimit, atLimit
	threads.TestCfg.NumWavefronts, threads.TestCfg.ThreadsPerWF = core.MaxThreads/64, 64
	threads.TestCfg.ActionsPerEpisode = 2
	actions.TestCfg.NumWavefronts, actions.TestCfg.ThreadsPerWF = 1, 1
	actions.TestCfg.ActionsPerEpisode = core.MaxActions
	for _, spec := range []Spec{threads, actions} {
		if _, err := spec.CampaignConfig(); err != nil {
			t.Errorf("a spec on every admission limit, past none, was refused: %v", err)
		}
	}
}

// TestSubmitDecodesStrictly pins the spec decoder at the wire: a body
// with a key Spec does not declare — the retired "rebuild", a misspelt
// field — is refused with a 400 that names it instead of admitted with
// the key ignored, while a Spec with every field set still round-trips.
func TestSubmitDecodesStrictly(t *testing.T) {
	srv := NewServer(Options{Logf: t.Logf}) // no workers: admitted specs never run
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}

	full := testSpec("swarm")
	full.Fork, full.Artifacts = true, true
	full.TraceDepth, full.LeaseTimeoutMs = 512, 30_000
	for v, i := reflect.ValueOf(full), 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("Spec.%s is unset: the round-trip must cover every field", v.Type().Field(i).Name)
		}
	}
	body, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if code, msg := post(body); code != http.StatusAccepted {
		t.Fatalf("full spec: status %d, want 202: %s", code, msg)
	}

	for _, key := range []string{"rebuild", "batchSzie"} {
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		m[key] = true
		bad, _ := json.Marshal(m)
		if code, msg := post(bad); code != http.StatusBadRequest || !strings.Contains(msg, key) {
			t.Errorf("spec with unknown key %q: status %d, body %q; want 400 naming the key", key, code, msg)
		}
	}

	// core.Config's retired StreamInline key is refused by name too:
	// the online checker picks its own mode.
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	m["testCfg"].(map[string]any)["StreamInline"] = true
	bad, _ := json.Marshal(m)
	if code, msg := post(bad); code != http.StatusBadRequest || !strings.Contains(msg, "StreamInline") {
		t.Errorf("spec whose testCfg sets StreamInline: status %d, body %q; want 400 naming the key", code, msg)
	}
}
