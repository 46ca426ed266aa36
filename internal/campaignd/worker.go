package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"time"

	"drftest/internal/harness"
)

// leaseRunner executes one campaign's leases on a long-lived reusable
// run context, reconstructing corners from lease level vectors via an
// interning cache (so consecutive leases under one corner keep the
// RunContext's pointer-compare fast paths, exactly like the
// single-process pool).
type leaseRunner struct {
	rc      *harness.RunContext
	corners *harness.CornerCache
}

// runnerSet caches one leaseRunner per running campaign — a worker
// slot serving interleaved leases from several campaigns keeps a warm
// context for each, and drops a context once its campaign is no longer
// among the daemon's running ones.
type runnerSet struct {
	runners map[string]*leaseRunner
}

func newRunnerSet() *runnerSet {
	return &runnerSet{runners: make(map[string]*leaseRunner)}
}

// run executes the lease a daemon answer carries and encodes its
// result for the merge. An answer with a spec lists the running
// campaigns too: contexts of every other campaign are dropped first.
// The spec rides with every polled lease, so a worker joining
// mid-campaign builds its context without extra round trips.
func (rs *runnerSet) run(resp *LeaseResponse) (*LeaseResult, error) {
	l, spec := resp.Lease, resp.Spec
	if l == nil {
		return nil, errors.New("campaignd: lease response without lease")
	}
	if spec != nil {
		for id := range rs.runners {
			if !slices.Contains(resp.Running, id) {
				delete(rs.runners, id)
			}
		}
	}
	r, ok := rs.runners[l.Campaign]
	if !ok {
		if spec == nil {
			return nil, fmt.Errorf("campaignd: lease for %s without its spec", l.Campaign)
		}
		cfg, err := spec.CampaignConfig()
		if err != nil {
			return nil, fmt.Errorf("campaignd: spec for %s: %w", l.Campaign, err)
		}
		r = &leaseRunner{
			rc: harness.NewRunContext(cfg),
			// Anchor the cache at the spec's base configs — the same
			// anchors the daemon's corner policy uses, so equal level
			// vectors derive the identical corner.
			corners: harness.NewCornerCache(cfg.TestCfg, cfg.SysCfg),
		}
		rs.runners[l.Campaign] = r
	}
	corner := r.corners.Corner(l.Levels)
	for i := 0; i < l.Count; i++ {
		r.rc.RunSeed(l.First+uint64(i), corner)
	}
	d := r.rc.Delta()
	res := &LeaseResult{
		Schema:   WireSchema,
		Campaign: l.Campaign,
		Batch:    l.Batch,
		Lease:    l.Lease,
		Seeds:    d.Seeds,
		L1:       SparseFromMatrix(d.L1),
		L2:       SparseFromMatrix(d.L2),
		// Copy: ClearDelta reuses the context's failures backing array.
		Failures: append([]harness.SeedFailure(nil), d.Failures...),
		Ops:      d.Ops,
		Events:   d.Events,
		WallNs:   int64(d.Wall),
	}
	r.rc.ClearDelta()
	return res, nil
}

// WorkerOptions configures a remote worker process.
type WorkerOptions struct {
	// ID names the worker in daemon logs and the active-worker gauge
	// (empty → "pid-<pid>").
	ID string
	// Slots is the number of concurrent lease executors (≤0 → 1). Each
	// slot keeps its own run contexts.
	Slots int
	// PollWait bounds each long poll (≤0 → 30s).
	PollWait time.Duration
	// HTTP overrides the client (nil → a client with no overall request
	// timeout; lease polls are long).
	HTTP *http.Client
	// Logf receives worker diagnostics (nil → silent).
	Logf func(format string, args ...any)
}

// RunWorker connects a worker process to a daemon at baseURL and
// serves leases until the daemon answers StatusShutdown or ctx ends.
// Cancelling ctx is graceful: each slot finishes its in-flight lease —
// and the lease an answer may have handed it as ctx ended — and posts
// the result, marked Leaving, before returning. Seeds already run are
// never thrown away (and if they were, the lease would expire and
// reissue; nothing is lost either way).
func RunWorker(ctx context.Context, baseURL string, opts WorkerOptions) error {
	if opts.ID == "" {
		opts.ID = fmt.Sprintf("pid-%d", os.Getpid())
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 30 * time.Second
	}
	if opts.HTTP == nil {
		opts.HTTP = &http.Client{}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	errs := make(chan error, opts.Slots)
	for i := 0; i < opts.Slots; i++ {
		id := opts.ID
		if opts.Slots > 1 {
			id = fmt.Sprintf("%s/%d", opts.ID, i+1)
		}
		go func() {
			errs <- workerSlot(ctx, baseURL, id, opts, logf)
		}()
	}
	var first error
	for i := 0; i < opts.Slots; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// workerSlot is one lease-serving loop: execute, post, and run the
// lease the post's answer carries; long-poll only when the answer is
// StatusWait (or the post failed).
func workerSlot(ctx context.Context, baseURL, id string, opts WorkerOptions, logf func(string, ...any)) error {
	runners := newRunnerSet()
	failures := 0
	var resp *LeaseResponse // the last result's answer; nil → poll
	for {
		if resp == nil {
			if ctx.Err() != nil {
				return nil // graceful: the previous lease's result is posted
			}
			var err error
			if resp, err = pollLease(ctx, baseURL, id, opts); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				failures++
				if failures >= 10 {
					return fmt.Errorf("campaignd worker %s: daemon unreachable: %w", id, err)
				}
				logf("worker %s: poll: %v (retrying)", id, err)
				select {
				case <-time.After(time.Second):
				case <-ctx.Done():
					return nil
				}
				continue
			}
			failures = 0
		}
		switch resp.Status {
		case StatusShutdown:
			logf("worker %s: daemon shutting down", id)
			return nil
		case StatusWait:
			resp = nil
			continue
		case StatusLease:
		default:
			return fmt.Errorf("campaignd worker %s: unknown lease status %q", id, resp.Status)
		}
		res, err := runners.run(resp)
		resp = nil
		if err != nil {
			logf("worker %s: %v", id, err)
			continue // the daemon reissues it on expiry
		}
		res.Worker = id
		// Post even when ctx was cancelled mid-lease: the work is done,
		// shipping it beats forcing a reissue. Leaving asks the daemon
		// to answer without a lease.
		res.Leaving = ctx.Err() != nil
		if resp, err = postResult(baseURL, res, opts); err != nil {
			logf("worker %s: post result %s/%d/%d: %v", id, res.Campaign, res.Batch, res.Lease, err)
		}
	}
}

// pollLease long-polls POST /lease.
func pollLease(ctx context.Context, baseURL, id string, opts WorkerOptions) (*LeaseResponse, error) {
	body, err := json.Marshal(LeaseRequest{
		Schema: WireSchema,
		Worker: id,
		WaitMs: opts.PollWait.Milliseconds(),
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/lease", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var out LeaseResponse
	if err := doJSON(opts.HTTP, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// postResult ships a lease result and returns the daemon's answer: the
// worker's next lease, StatusWait or StatusShutdown. It deliberately
// takes no ctx: a graceful shutdown still posts completed work.
func postResult(baseURL string, res *LeaseResult, opts WorkerOptions) (*LeaseResponse, error) {
	body, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, baseURL+"/results", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var out LeaseResponse
	if err := doJSON(opts.HTTP, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// doJSON executes a request and decodes a JSON response into out,
// mapping non-2xx responses to errors carrying the server's message.
func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
