package campaignd

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"drftest/internal/coverage"
	"drftest/internal/harness"
	"drftest/internal/protocol"
	"drftest/internal/viper"
)

// Options configures a control-plane Server.
type Options struct {
	// LocalWorkers sizes the daemon's in-process worker pool. Zero means
	// the daemon only coordinates — every seed runs on remote worker
	// processes. Negative disables the pool too (explicit "remote only").
	LocalWorkers int
	// Store, when non-nil, persists failure artifacts: admitted specs
	// get Artifacts set, workers ship replay artifacts inline, and the
	// daemon content-addresses them here, rewriting each failure's
	// ArtifactPath to the stored object.
	Store *Store
	// LeaseTimeout is the default result deadline per lease (specs may
	// override; zero → DefaultLeaseTimeout).
	LeaseTimeout time.Duration
	// ReportDir, when non-empty, receives one <campaign-id>.json final
	// report per finished campaign (the graceful-shutdown record).
	ReportDir string
	// Logf receives daemon diagnostics (nil → silent).
	Logf func(format string, args ...any)
}

// shard is one lease of an in-flight batch and its lifecycle: planned
// → issued (with a result deadline) → done (result folded into the
// batch's delta). An issued shard whose deadline passes is reissued to
// the next worker that asks; whichever copy of the result arrives first
// wins and the other is dropped — the deltas are deterministic, so both
// are the same.
type shard struct {
	lease    Lease
	issued   bool
	worker   string
	deadline time.Time
	done     bool
}

// batch is one in-flight batch: its leases, how many still owe a
// result, and the one delta every accepted result folds into.
type batch struct {
	index   int
	shards  []shard
	pending int
	delta   harness.BatchDelta
}

// issuable returns the batch's lowest unissued or expired shard.
func (b *batch) issuable(now time.Time) *shard {
	for i := range b.shards {
		if sh := &b.shards[i]; !sh.done && (!sh.issued || now.After(sh.deadline)) {
			return sh
		}
	}
	return nil
}

func (b *batch) anyIssued() bool {
	for i := range b.shards {
		if b.shards[i].issued {
			return true
		}
	}
	return false
}

// campaign is one admitted spec and its state machine. The server's
// mutex guards all fields; the CampaignState inside is driven only
// under it (Plan and PlanAhead when sharding, Apply when a batch
// merges).
type campaign struct {
	id           string
	spec         Spec
	state        *harness.CampaignState
	l1Spec       *protocol.Spec
	l2Spec       *protocol.Spec
	leaseTimeout time.Duration

	// batches holds the in-flight batches in batch order: batches[0] is
	// the current one (the batch Plan returns) and batches[1], when
	// present, the batch run ahead of it (PlanAhead). Empty between
	// batches; Plan is idempotent, so a discarded unissued batch
	// re-plans identically.
	batches []*batch
	aborted bool

	// result/report are set exactly once at finish; done closes then.
	result *harness.CampaignResult
	report map[string]any
	done   chan struct{}
}

// newBatch shards plan into leases of ≤ LeaseSeeds contiguous seeds
// and appends it to the in-flight batches.
func (c *campaign) newBatch(plan harness.BatchPlan) *batch {
	b := &batch{index: plan.Index, delta: harness.BatchDelta{
		L1: coverage.NewMatrix(c.l1Spec),
		L2: coverage.NewMatrix(c.l2Spec),
	}}
	step := c.spec.LeaseSeeds
	for off, idx := 0, 0; off < plan.Count; off, idx = off+step, idx+1 {
		b.shards = append(b.shards, shard{lease: Lease{
			Campaign: c.id,
			Batch:    plan.Index,
			Lease:    idx,
			First:    plan.First + uint64(off),
			Count:    min(step, plan.Count-off),
			Levels:   plan.Corner.Levels,
		}})
	}
	b.pending = len(b.shards)
	c.batches = append(c.batches, b)
	return b
}

// batch returns the in-flight batch with index i, or nil.
func (c *campaign) batch(i int) *batch {
	for _, b := range c.batches {
		if b.index == i {
			return b
		}
	}
	return nil
}

// finished reports whether the campaign has a final result.
func (c *campaign) finished() bool { return c.result != nil }

// Server is the campaign control plane: it admits specs, shards
// batches into leases for polling workers (local pool and remote
// processes use the identical lease path), merges results at the batch
// barrier, and owns every campaign's state machine. See the package
// comment for the determinism argument.
type Server struct {
	opts    Options
	metrics Metrics

	mu        sync.Mutex
	wake      chan struct{}
	draining  bool
	campaigns map[string]*campaign
	order     []*campaign
	nextID    int
	// pollers refcounts workers currently blocked in a lease poll — the
	// live half of the active-worker gauge (the other half is workers
	// holding outstanding leases).
	pollers map[string]int

	localWG sync.WaitGroup
}

// NewServer creates a control-plane server. Call Start to launch the
// local worker pool and Handler to expose the HTTP API.
func NewServer(opts Options) *Server {
	if opts.LeaseTimeout <= 0 {
		opts.LeaseTimeout = DefaultLeaseTimeout
	}
	return &Server{
		opts:      opts,
		wake:      make(chan struct{}),
		campaigns: make(map[string]*campaign),
		pollers:   make(map[string]int),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// wakeLocked broadcasts to every blocked lease poll and drain waiter;
// callers hold mu.
func (s *Server) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// Start launches the local worker pool. Remote workers need no Start —
// they arrive over POST /lease whenever they connect.
func (s *Server) Start() {
	for i := 0; i < s.opts.LocalWorkers; i++ {
		id := fmt.Sprintf("local-%d", i+1)
		s.localWG.Add(1)
		go func() {
			defer s.localWG.Done()
			s.runLocalWorker(id)
		}()
	}
}

// runLocalWorker drives one in-process worker through the exact lease
// protocol remote workers use — same nextLease/submitResult pair, same
// sparse wire encoding, same lease-in-the-answer chaining — so local
// and remote execution are one code path and behave identically.
func (s *Server) runLocalWorker(id string) {
	runners := newRunnerSet()
	resp := LeaseResponse{Status: StatusWait}
	for {
		switch resp.Status {
		case StatusShutdown:
			return
		case StatusWait:
			resp = s.nextLease(id, 30*time.Second)
			continue
		}
		res, err := runners.run(&resp)
		if err != nil {
			s.logf("campaignd: worker %s: %v", id, err)
			resp = LeaseResponse{Status: StatusWait} // the lease times out and reissues
			continue
		}
		res.Worker = id
		if resp, err = s.submitResult(res); err != nil {
			s.logf("campaignd: worker %s: submit: %v", id, err)
			resp = LeaseResponse{Status: StatusWait}
		}
	}
}

// Submit admits a campaign spec and returns its ID. The spec is
// validated and frozen (defaults resolved, Artifacts set when the
// daemon has a store) — the frozen spec is what every lease carries.
func (s *Server) Submit(spec Spec) (string, error) {
	spec = spec.withDefaults()
	if s.opts.Store != nil {
		spec.Artifacts = true
	}
	cfg, err := spec.CampaignConfig()
	if err != nil {
		return "", err
	}
	l2Spec, _, _ := harness.CampaignSpecs(cfg.SysCfg)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return "", fmt.Errorf("campaignd: daemon is draining")
	}
	s.nextID++
	c := &campaign{
		id:           fmt.Sprintf("c%03d", s.nextID),
		spec:         spec,
		state:        harness.NewCampaignState(cfg),
		l1Spec:       viper.NewTCPSpec(),
		l2Spec:       l2Spec,
		leaseTimeout: spec.leaseTimeout(s.opts.LeaseTimeout),
		done:         make(chan struct{}),
	}
	s.campaigns[c.id] = c
	s.order = append(s.order, c)
	s.metrics.CampaignsSubmitted.Add(1)
	s.wakeLocked()
	s.logf("campaignd: admitted %s: mode=%s baseSeed=%d batch=%d lease=%d",
		c.id, spec.Mode, spec.BaseSeed, spec.BatchSize, spec.LeaseSeeds)
	return c.id, nil
}

// batchLocked returns the campaign's in-flight batch at depth (0 the
// current one, 1 the one run ahead), sharding it when the campaign
// wants it: the current batch whenever none is in flight, the next one
// when PlanAhead allows it. Callers reach depth 1 only once no lease of
// the current batch is issuable, so a batch is run ahead only once
// every lease of the current one is out. Nothing is sharded while
// draining. Callers hold mu.
func (s *Server) batchLocked(c *campaign, depth int) *batch {
	if depth < len(c.batches) {
		return c.batches[depth]
	}
	if s.draining || depth > len(c.batches) {
		return nil
	}
	next := c.state.Plan
	if depth == 1 {
		next = c.state.PlanAhead
	}
	plan, ok := next()
	if !ok {
		return nil
	}
	return c.newBatch(plan)
}

// issuableLocked finds the next lease to hand a worker: first the
// current batches, campaigns in admission order, then the batches run
// ahead of them, so one campaign's run-ahead never delays another's
// current batch. Within a batch the lowest unissued (or expired) shard
// wins. Callers hold mu.
func (s *Server) issuableLocked(now time.Time) (*campaign, *batch, *shard) {
	for depth := 0; depth < 2; depth++ {
		for _, c := range s.order {
			if c.finished() {
				continue
			}
			b := s.batchLocked(c, depth)
			if b == nil {
				continue
			}
			if sh := b.issuable(now); sh != nil {
				if sh.issued {
					s.metrics.LeasesExpired.Add(1)
					s.logf("campaignd: lease %s/%d/%d expired on %s; reissuing",
						c.id, sh.lease.Batch, sh.lease.Lease, sh.worker)
				}
				return c, b, sh
			}
		}
	}
	return nil, nil, nil
}

// issueLocked hands worker the next issuable lease, if there is one.
// chainedFrom is the campaign of the result the lease answers ("" for
// a poll): a lease of that campaign goes without its spec, since the
// worker holds its run context. Callers hold mu.
func (s *Server) issueLocked(worker, chainedFrom string, now time.Time) (LeaseResponse, bool) {
	c, b, sh := s.issuableLocked(now)
	if sh == nil {
		return LeaseResponse{}, false
	}
	sh.issued, sh.worker, sh.deadline = true, worker, now.Add(c.leaseTimeout)
	s.metrics.LeasesIssued.Add(1)
	if b != c.batches[0] {
		s.metrics.LeasesAhead.Add(1)
	}
	if chainedFrom != "" {
		s.metrics.LeasesChained.Add(1)
	}
	lease := sh.lease
	resp := LeaseResponse{Status: StatusLease, Lease: &lease}
	if c.id != chainedFrom {
		spec := c.spec
		resp.Spec = &spec
		for _, other := range s.order {
			if !other.finished() {
				resp.Running = append(resp.Running, other.id)
			}
		}
	}
	return resp, true
}

// idleLocked answers a worker when no lease is issuable: StatusShutdown
// once the daemon is drained of in-flight batches, StatusWait before.
// Callers hold mu.
func (s *Server) idleLocked() LeaseResponse {
	if s.draining && !s.inFlightLocked() {
		return LeaseResponse{Status: StatusShutdown}
	}
	return LeaseResponse{Status: StatusWait}
}

// earliestDeadlineLocked returns the soonest outstanding-lease
// deadline, so lease polls sleep exactly until the next possible
// reissue. Callers hold mu.
func (s *Server) earliestDeadlineLocked() (time.Time, bool) {
	var d time.Time
	for _, c := range s.order {
		if c.finished() {
			continue
		}
		for _, b := range c.batches {
			for _, sh := range b.shards {
				if sh.issued && !sh.done && (d.IsZero() || sh.deadline.Before(d)) {
					d = sh.deadline
				}
			}
		}
	}
	return d, !d.IsZero()
}

// inFlightLocked reports whether any unfinished campaign has a batch
// in flight — the condition drain waits out. Callers hold mu.
func (s *Server) inFlightLocked() bool {
	for _, c := range s.order {
		if !c.finished() && len(c.batches) > 0 {
			return true
		}
	}
	return false
}

// nextLease is the long-poll core behind POST /lease and the local
// pool: it returns a lease as soon as one is issuable, waking on
// submissions, merges and lease expiries, or StatusWait after wait
// with no work (StatusShutdown once the daemon is drained of in-flight
// batches).
func (s *Server) nextLease(worker string, wait time.Duration) LeaseResponse {
	pollDeadline := time.Now().Add(wait)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pollers[worker]++
	defer func() {
		if s.pollers[worker]--; s.pollers[worker] <= 0 {
			delete(s.pollers, worker)
		}
	}()
	for {
		now := time.Now()
		if resp, ok := s.issueLocked(worker, "", now); ok {
			return resp
		}
		if resp := s.idleLocked(); resp.Status == StatusShutdown || !now.Before(pollDeadline) {
			return resp
		}
		sleepUntil := pollDeadline
		if d, ok := s.earliestDeadlineLocked(); ok && d.Before(sleepUntil) {
			sleepUntil = d
		}
		if dur := time.Until(sleepUntil); dur > 0 {
			wakeCh := s.wake
			s.mu.Unlock()
			t := time.NewTimer(dur)
			select {
			case <-wakeCh:
			case <-t.C:
			}
			t.Stop()
			s.mu.Lock()
		}
	}
}

// submitResult accepts one executed lease and answers it with the
// worker's next lease when one can be issued at once (StatusWait or
// StatusShutdown otherwise, and always when the worker is leaving).
// Artifacts are persisted into the store outside the lock — content
// addressing makes a duplicate's writes no-ops — and the result is
// folded into its batch's delta under it. Stale and duplicate results
// are dropped silently; malformed ones error and leave the batch
// untouched.
func (s *Server) submitResult(res *LeaseResult) (LeaseResponse, error) {
	if res.Schema != WireSchema {
		return LeaseResponse{}, errSchema(res.Schema)
	}
	s.mu.Lock()
	c := s.campaigns[res.Campaign]
	s.mu.Unlock()
	if c == nil {
		return LeaseResponse{}, fmt.Errorf("campaignd: result for unknown campaign %s", res.Campaign)
	}
	if s.opts.Store != nil && c.spec.Artifacts {
		s.persistArtifacts(res)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.acceptLocked(c, res); err != nil {
		return LeaseResponse{}, err
	}
	if !res.Leaving {
		if resp, ok := s.issueLocked(res.Worker, res.Campaign, time.Now()); ok {
			return resp, nil
		}
	}
	return s.idleLocked(), nil
}

// acceptLocked folds a result into its batch and merges every batch
// that completes. Callers hold mu.
func (s *Server) acceptLocked(c *campaign, res *LeaseResult) error {
	b := c.batch(res.Batch)
	if c.finished() || b == nil {
		s.metrics.ResultsDropped.Add(1)
		return nil // stale: the batch merged (a reissued lease won) or was dropped
	}
	if res.Lease < 0 || res.Lease >= len(b.shards) {
		return fmt.Errorf("campaignd: result %s/%d: no lease %d", res.Campaign, res.Batch, res.Lease)
	}
	sh := &b.shards[res.Lease]
	if sh.done {
		s.metrics.ResultsDropped.Add(1)
		return nil // duplicate: deterministic deltas, either copy is identical
	}
	if res.Seeds != sh.lease.Count {
		return fmt.Errorf("campaignd: result %s/%d/%d ran %d seeds, lease has %d",
			res.Campaign, res.Batch, res.Lease, res.Seeds, sh.lease.Count)
	}
	if err := foldResult(&b.delta, res); err != nil {
		return fmt.Errorf("campaignd: result %s/%d/%d: %w", res.Campaign, res.Batch, res.Lease, err)
	}
	sh.done = true
	b.pending--
	s.metrics.LeasesCompleted.Add(1)
	s.mergeLocked(c)
	// Wake the pollers: a merge may have freed the next batch, and a
	// finished lease moves the earliest deadline they sleep until.
	s.wakeLocked()
	return nil
}

// mergeLocked applies every complete batch at the head of the
// campaign's in-flight list through CampaignState.Apply, strictly in
// batch order: a batch run ahead whose results all landed first waits
// for the current one. When a merge ends the campaign, the batch run
// ahead is dropped with whatever results it holds. Callers hold mu.
func (s *Server) mergeLocked(c *campaign) {
	for len(c.batches) > 0 && c.batches[0].pending == 0 {
		b := c.batches[0]
		c.batches = append(c.batches[:0], c.batches[1:]...)
		c.state.Apply([]harness.BatchDelta{b.delta})
		prog := c.state.Progress()
		s.metrics.BatchesMerged.Add(1)
		s.metrics.SeedsRun.Add(uint64(b.delta.Seeds))
		s.metrics.CellsActivated.Add(uint64(prog.NewCellsByBatch[len(prog.NewCellsByBatch)-1]))
		if c.state.Done() {
			c.batches = c.batches[:0]
			s.finishLocked(c)
			return
		}
	}
}

// persistArtifacts moves inline replay artifacts into the store,
// rewriting each failure to reference the stored object.
func (s *Server) persistArtifacts(res *LeaseResult) {
	for i := range res.Failures {
		sf := &res.Failures[i]
		if len(sf.Artifact) == 0 {
			continue
		}
		meta := ObjectMeta{Kind: "gpu", Seed: sf.Seed, Campaign: res.Campaign}
		if len(sf.Failures) > 0 {
			meta.Tick = uint64(sf.Failures[0].Tick)
		}
		hash, path, created, err := s.opts.Store.Put(sf.Artifact, meta)
		if err != nil {
			sf.ArtifactErr = err.Error()
			s.logf("campaignd: store artifact for seed %d: %v", sf.Seed, err)
			continue
		}
		sf.Artifact = nil
		sf.ArtifactPath = path
		if created {
			s.metrics.Artifacts.Add(1)
			s.logf("campaignd: stored artifact sha256:%s (%s seed %d)", hash[:12], res.Campaign, sf.Seed)
		}
	}
}

// finishLocked finalizes a campaign: result, report JSON, report file,
// done broadcast. Callers hold mu.
func (s *Server) finishLocked(c *campaign) {
	c.result = c.state.Result()
	c.report = harness.CampaignReportJSON(c.result, c.spec.BaseSeed)
	c.report["campaign"] = c.id
	c.report["aborted"] = c.aborted
	s.metrics.CampaignsCompleted.Add(1)
	close(c.done)
	s.logf("campaignd: %s finished: seeds=%d batches=%d saturated=%v failures=%d aborted=%v",
		c.id, c.result.SeedsRun, c.result.Batches, c.result.Saturated, len(c.result.Failures), c.aborted)
	if s.opts.ReportDir != "" {
		if err := s.writeReport(c); err != nil {
			s.logf("campaignd: report for %s: %v", c.id, err)
		}
	}
}

// writeReport writes the campaign's final report JSON into ReportDir.
func (s *Server) writeReport(c *campaign) error {
	data, err := json.MarshalIndent(c.report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.opts.ReportDir, 0o755); err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(s.opts.ReportDir, c.id+".json"), append(data, '\n'))
}

// Wait blocks until the campaign finishes (or ctx ends) and returns
// its result — the in-process flavor of polling GET /campaigns/{id}.
func (s *Server) Wait(ctx context.Context, id string) (*harness.CampaignResult, error) {
	s.mu.Lock()
	c := s.campaigns[id]
	s.mu.Unlock()
	if c == nil {
		return nil, fmt.Errorf("campaignd: no campaign %s", id)
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.result, nil
}

// Drain gracefully shuts the control plane down: no new campaigns or
// batches are admitted, each campaign's current batch runs to
// completion if any of its leases is out (they keep reissuing on
// expiry, so a dead worker cannot wedge the drain — ctx bounds it),
// batches run ahead and never-issued batches are discarded (Plan is
// idempotent, nothing is lost), and every unfinished campaign is then
// finalized at its merged whole-batch prefix — still a deterministic
// truncation of the spec's canonical Plan/Apply sequence — with its
// final report written. Workers observe StatusShutdown and exit; Drain
// returns once the local pool has too.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	for _, c := range s.order {
		if c.finished() || len(c.batches) == 0 {
			continue
		}
		// The campaign ends at its current batch: the batch run ahead
		// is dropped, and a current batch with no lease out yet too.
		keep := 0
		if c.batches[0].anyIssued() {
			keep = 1
		}
		c.batches = c.batches[:keep]
	}
	s.wakeLocked()
	s.mu.Unlock()

	for {
		s.mu.Lock()
		if !s.inFlightLocked() {
			s.abortRemainingLocked()
			s.mu.Unlock()
			break
		}
		wakeCh := s.wake
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.logf("campaignd: drain deadline; dropping in-flight batches")
			for _, c := range s.order {
				c.batches = nil
			}
			s.abortRemainingLocked()
			s.mu.Unlock()
			s.localWG.Wait()
			return
		case <-wakeCh:
		case <-time.After(time.Second):
			// belt-and-braces re-check: reissues need a polling worker,
			// and all of them may be between polls
		}
	}
	s.localWG.Wait()
}

// abortRemainingLocked finalizes every unfinished campaign at its
// merged prefix; callers hold mu (draining, no in-flight batches).
func (s *Server) abortRemainingLocked() {
	for _, c := range s.order {
		if c.finished() {
			continue
		}
		if !c.state.Done() {
			c.aborted = true
			c.state.Abort()
		}
		s.finishLocked(c)
	}
	s.wakeLocked()
}
