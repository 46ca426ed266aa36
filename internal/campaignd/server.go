package campaignd

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

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

// shard is one lease of the current batch and its lifecycle: planned →
// issued (with a result deadline) → done (delta held for the barrier).
// An issued shard whose deadline passes is reissued to the next polling
// worker; whichever copy of the result arrives first wins and the other
// is dropped — the deltas are deterministic, so both are the same.
type shard struct {
	lease    Lease
	issued   bool
	worker   string
	deadline time.Time
	done     bool
	delta    harness.BatchDelta
}

// campaign is one admitted spec and its state machine. The server's
// mutex guards all fields; the CampaignState inside is driven only
// under it (Plan when sharding, Apply at the barrier).
type campaign struct {
	id           string
	spec         Spec
	state        *harness.CampaignState
	l1Spec       *protocol.Spec
	l2Spec       *protocol.Spec
	leaseTimeout time.Duration

	// shards holds the in-flight batch's leases; nil between batches.
	// Plan is idempotent, so a discarded unissued batch re-plans
	// identically.
	shards  []*shard
	aborted bool

	// result/report are set exactly once at finish; done closes then.
	result *harness.CampaignResult
	report map[string]any
	done   chan struct{}
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
// sparse wire encoding — so local and remote execution are one code
// path and behave identically.
func (s *Server) runLocalWorker(id string) {
	runners := newRunnerSet()
	for {
		resp := s.nextLease(id, 30*time.Second)
		switch resp.Status {
		case StatusShutdown:
			return
		case StatusWait:
			continue
		}
		res, err := runners.run(resp.Lease, resp.Spec)
		if err != nil {
			s.logf("campaignd: worker %s: lease %s/%d/%d: %v",
				id, resp.Lease.Campaign, resp.Lease.Batch, resp.Lease.Lease, err)
			continue // the lease times out and reissues
		}
		res.Worker = id
		if err := s.submitResult(res); err != nil {
			s.logf("campaignd: worker %s: submit: %v", id, err)
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

// shardLocked plans the campaign's next batch and shards it into
// leases of ≤ LeaseSeeds contiguous seeds; callers hold mu. Returns
// false once the campaign wants no more batches.
func (s *Server) shardLocked(c *campaign) bool {
	plan, ok := c.state.Plan()
	if !ok {
		return false
	}
	step := c.spec.LeaseSeeds
	for off, idx := 0, 0; off < plan.Count; off, idx = off+step, idx+1 {
		n := step
		if rest := plan.Count - off; n > rest {
			n = rest
		}
		c.shards = append(c.shards, &shard{lease: Lease{
			Campaign: c.id,
			Batch:    plan.Index,
			Lease:    idx,
			First:    plan.First + uint64(off),
			Count:    n,
			Levels:   plan.Corner.Levels,
		}})
	}
	return true
}

// issuableLocked finds the next lease to hand a worker: campaigns in
// admission order, within one the lowest unissued (or expired) shard.
// Callers hold mu.
func (s *Server) issuableLocked(now time.Time) (*shard, *campaign) {
	for _, c := range s.order {
		if c.finished() {
			continue
		}
		if c.shards == nil {
			if s.draining {
				continue // no new batches while draining
			}
			if !s.shardLocked(c) {
				continue
			}
		}
		for _, sh := range c.shards {
			if sh.done {
				continue
			}
			if !sh.issued {
				return sh, c
			}
			if now.After(sh.deadline) {
				s.metrics.LeasesExpired.Add(1)
				s.logf("campaignd: lease %s/%d/%d expired on %s; reissuing",
					c.id, sh.lease.Batch, sh.lease.Lease, sh.worker)
				return sh, c
			}
		}
	}
	return nil, nil
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
		for _, sh := range c.shards {
			if sh.issued && !sh.done && (d.IsZero() || sh.deadline.Before(d)) {
				d = sh.deadline
			}
		}
	}
	return d, !d.IsZero()
}

// inFlightLocked reports whether any campaign has an issued,
// unfinished lease or an incomplete batch with issued work — the
// condition drain waits out. Callers hold mu.
func (s *Server) inFlightLocked() bool {
	for _, c := range s.order {
		if !c.finished() && c.shards != nil {
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
		if s.draining && !s.inFlightLocked() {
			return LeaseResponse{Status: StatusShutdown}
		}
		now := time.Now()
		if sh, c := s.issuableLocked(now); sh != nil {
			sh.issued = true
			sh.worker = worker
			sh.deadline = now.Add(c.leaseTimeout)
			s.metrics.LeasesIssued.Add(1)
			spec := c.spec
			lease := sh.lease
			return LeaseResponse{Status: StatusLease, Lease: &lease, Spec: &spec}
		}
		sleepUntil := pollDeadline
		if d, ok := s.earliestDeadlineLocked(); ok && d.Before(sleepUntil) {
			sleepUntil = d
		}
		if !now.Before(pollDeadline) {
			return LeaseResponse{Status: StatusWait}
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

// submitResult accepts one executed lease: artifacts are persisted
// into the store (outside the lock — content addressing makes a
// duplicate's writes no-ops), the sparse delta is decoded, and the
// shard is completed under the lock. When the last shard of the batch
// lands, the deltas merge through CampaignState.Apply in shard order
// and the campaign advances (or finishes). Stale and duplicate results
// are dropped silently; malformed ones error.
func (s *Server) submitResult(res *LeaseResult) error {
	if res.Schema != WireSchema {
		return fmt.Errorf("campaignd: result schema %d, daemon speaks %d", res.Schema, WireSchema)
	}
	s.mu.Lock()
	c := s.campaigns[res.Campaign]
	s.mu.Unlock()
	if c == nil {
		return fmt.Errorf("campaignd: result for unknown campaign %s", res.Campaign)
	}
	if s.opts.Store != nil && c.spec.Artifacts {
		s.persistArtifacts(res)
	}
	delta, err := resultToDelta(res, c.l1Spec, c.l2Spec)
	if err != nil {
		return fmt.Errorf("campaignd: result %s/%d/%d: %w", res.Campaign, res.Batch, res.Lease, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if c.finished() || c.shards == nil || res.Batch != c.shards[0].lease.Batch {
		s.metrics.ResultsDropped.Add(1)
		return nil // stale: the batch already merged (e.g. a reissued lease won)
	}
	if res.Lease < 0 || res.Lease >= len(c.shards) {
		return fmt.Errorf("campaignd: result %s/%d: no lease %d", res.Campaign, res.Batch, res.Lease)
	}
	sh := c.shards[res.Lease]
	if sh.done {
		s.metrics.ResultsDropped.Add(1)
		return nil // duplicate: deterministic deltas, either copy is identical
	}
	if res.Seeds != sh.lease.Count {
		return fmt.Errorf("campaignd: result %s/%d/%d ran %d seeds, lease has %d",
			res.Campaign, res.Batch, res.Lease, res.Seeds, sh.lease.Count)
	}
	sh.done = true
	sh.delta = delta
	s.metrics.LeasesCompleted.Add(1)
	s.metrics.SeedsRun.Add(uint64(res.Seeds))

	for _, other := range c.shards {
		if !other.done {
			s.wakeLocked() // a reissue candidate may now be the head lease
			return nil
		}
	}
	// Batch barrier: every shard landed. Merge in shard order (order is
	// irrelevant to the outcome — union is commutative — but fixing it
	// keeps the path obviously deterministic).
	deltas := make([]harness.BatchDelta, len(c.shards))
	for i, other := range c.shards {
		deltas[i] = other.delta
	}
	prev := c.state.Progress().ActiveCells
	c.state.Apply(deltas)
	prog := c.state.Progress()
	s.metrics.BatchesMerged.Add(1)
	s.metrics.CellsActivated.Add(uint64(prog.ActiveCells - prev))
	c.shards = nil
	if c.state.Done() {
		s.finishLocked(c)
	}
	s.wakeLocked()
	return nil
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
// batches are admitted, in-flight batches run to completion (their
// leases keep reissuing on expiry, so a dead worker cannot wedge the
// drain — ctx bounds it), never-issued batches are discarded (Plan is
// idempotent, nothing is lost), and every unfinished campaign is then
// finalized at its merged whole-batch prefix — still a deterministic
// truncation of the spec's canonical Plan/Apply sequence — with its
// final report written. Workers observe StatusShutdown and exit; Drain
// returns once the local pool has too.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	for _, c := range s.order {
		if c.finished() || c.shards == nil {
			continue
		}
		issued := false
		for _, sh := range c.shards {
			if sh.issued {
				issued = true
				break
			}
		}
		if !issued {
			c.shards = nil // never started; discard, not wait
		}
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
				c.shards = nil
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
