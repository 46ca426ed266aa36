package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"drftest/internal/cache"
	"drftest/internal/core"
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
	return res
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
// worker that dies is reissued after its timeout to the next poller,
// the campaign completes with the exact local outcome, and the late
// duplicate submission from the "dead" worker is dropped.
func TestLeaseRequeue(t *testing.T) {
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
	for !finished(srv, id) {
		resp := srv.nextLease("live", 2*time.Second)
		if resp.Status == StatusWait {
			continue
		}
		if resp.Status != StatusLease {
			t.Fatalf("poll: %+v", resp)
		}
		res, err := runners.run(resp.Lease, resp.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Lease.Batch == doomed.Lease.Batch && resp.Lease.Lease == doomed.Lease.Lease {
			cp := *res // the reissue: keep a duplicate to submit late
			reissuedCopy = &cp
		}
		if err := srv.submitResult(res); err != nil {
			t.Fatal(err)
		}
	}
	if reissuedCopy == nil {
		t.Fatal("expired lease was never reissued")
	}
	if srv.metrics.LeasesExpired.Load() == 0 {
		t.Error("no lease expiry counted")
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
	if err := srv.submitResult(reissuedCopy); err != nil {
		t.Errorf("duplicate submission errored: %v", err)
	}
	if got := srv.metrics.ResultsDropped.Load(); got != dropped+1 {
		t.Errorf("duplicate not counted as dropped: %d -> %d", dropped, got)
	}
}

// TestDrainStopsAtBatchBoundary pins graceful shutdown: draining
// mid-campaign finishes the in-flight batch, finalizes the campaign at
// a whole-batch prefix of the canonical local run, and writes the
// final report.
func TestDrainStopsAtBatchBoundary(t *testing.T) {
	spec := testSpec("swarm")
	spec.SaturateK = 0
	spec.MaxSeeds = 512 // far more work than the drain will allow
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

	// The merged prefix must equal the canonical run truncated to the
	// same batch count.
	full := localResult(t, spec, 2)
	for b := 0; b < res.Batches; b++ {
		if res.NewCellsByBatch[b] != full.NewCellsByBatch[b] || res.CornerByBatch[b] != full.CornerByBatch[b] {
			t.Errorf("batch %d diverges from canonical prefix: (%d, %s) vs (%d, %s)", b,
				res.NewCellsByBatch[b], res.CornerByBatch[b],
				full.NewCellsByBatch[b], full.CornerByBatch[b])
		}
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

// TestMetricsAndHTTPSurface walks the HTTP API end to end with the
// in-process pool: submit over POST, status long-poll, result report,
// metrics counters consistent with the campaign outcome, and pprof
// reachable.
func TestMetricsAndHTTPSurface(t *testing.T) {
	srv := NewServer(Options{LocalWorkers: 2, Logf: t.Logf})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
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

	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof endpoint: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof endpoint status %d", resp.StatusCode)
	}

	srv.Drain(ctx)
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
// end of time, and so is a config a correct protocol cannot run without
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
		if _, err := newRunnerSet().run(&Lease{Campaign: "c001", Count: 1}, &spec); err == nil || !strings.Contains(err.Error(), tc.want) {
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
}
