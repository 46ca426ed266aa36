// Package campaignd is the distributed campaign control plane: an
// HTTP/JSON daemon that accepts campaign specs, shards each batch of
// seeds into leases across a local worker pool and remote worker
// processes, merges streamed-back coverage deltas at the batch
// barrier, and persists failure artifacts into a content-addressed
// store.
//
// The daemon owns the campaign state machine (harness.CampaignState):
// corner choice, union merging, attribution and the K-zero-batch
// stopping rule all happen centrally, in batch order, so a distributed
// campaign's outcome is byte-identical to the single-process
// `gputester -campaign` path for the same spec — both drive the same
// Plan/Apply sequence; workers only execute seeds. Leases carry a
// timeout and are reissued when a worker disappears, so every seed in
// the campaign's range runs exactly once *as observed by the merge
// layer* (duplicate results from a slow worker are dropped at the
// barrier; the seeds' deltas are deterministic, so either copy is the
// same bytes).
//
// Wire economics: a worker runs a whole lease (a contiguous slice of
// one batch's seeds) against its reusable run context and posts one
// compact result — the coverage delta as a sparse nonzero-cell list,
// failures with their replay artifacts inline — so merge and I/O costs
// amortize per lease, not per seed, and aggregate seeds/sec scales
// with worker processes.
package campaignd

import (
	"fmt"
	"time"

	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/harness"
	"drftest/internal/protocol"
	"drftest/internal/viper"
)

// WireSchema versions the control-plane API payloads. Daemon and
// workers must agree; the lease handshake carries it.
const WireSchema = 1

// DefaultLeaseTimeout is how long the daemon waits for a lease's
// result before requeuing it for another worker.
const DefaultLeaseTimeout = 60 * time.Second

// Spec is a campaign submission: everything the daemon needs to run a
// campaign, and everything a worker needs to execute its leases. It is
// the JSON body of POST /campaigns and rides along with every lease so
// workers can build run contexts without a second round trip.
type Spec struct {
	SysCfg  viper.Config `json:"sysCfg"`
	TestCfg core.Config  `json:"testCfg"`
	// Mode is the corner policy: "uniform", "swarm" or "directed".
	Mode     string `json:"mode,omitempty"`
	BaseSeed uint64 `json:"baseSeed"`
	// BatchSize, SaturateK and MaxSeeds are the campaign shape knobs,
	// with the same defaults as harness.CampaignConfig.
	BatchSize int `json:"batchSize,omitempty"`
	SaturateK int `json:"saturateK,omitempty"`
	MaxSeeds  int `json:"maxSeeds,omitempty"`
	// Fork makes workers fork seeds from a warm system snapshot
	// (harness.CampaignConfig.Fork).
	Fork bool `json:"fork,omitempty"`
	// TraceDepth sizes the execution-trace ring behind failure
	// artifacts (≤0 → harness.DefaultTraceCapacity).
	TraceDepth int `json:"traceDepth,omitempty"`
	// LeaseSeeds shards each batch into leases of at most this many
	// seeds (≤0 → max(1, BatchSize/4)). Smaller leases spread a batch
	// across more workers; the outcome never depends on it.
	LeaseSeeds int `json:"leaseSeeds,omitempty"`
	// LeaseTimeoutMs is how long the daemon waits for a lease's result
	// before reissuing it (≤0 → the daemon's default). A killed worker
	// therefore never loses seeds — its leases requeue.
	LeaseTimeoutMs int64 `json:"leaseTimeoutMs,omitempty"`
	// Artifacts is set by the daemon at admission when it has an
	// artifact store: workers then ship replay artifacts inline with
	// their results.
	Artifacts bool `json:"artifacts,omitempty"`
}

// withDefaults resolves the spec's sharding defaults (the campaign
// shape defaults live in harness.CampaignConfig.withDefaults).
func (s Spec) withDefaults() Spec {
	if s.BatchSize <= 0 {
		s.BatchSize = 16
	}
	if s.MaxSeeds <= 0 {
		s.MaxSeeds = harness.DefaultCampaignMaxSeeds
	}
	if s.LeaseSeeds <= 0 {
		s.LeaseSeeds = max(1, s.BatchSize/4)
	}
	return s
}

// CampaignConfig lowers the spec to the harness campaign config a
// CampaignState or worker run context is built from. A spec
// harness.CampaignConfig.Validate refuses is an error naming the field:
// admission refuses it, where running it would kill a worker.
func (s Spec) CampaignConfig() (harness.CampaignConfig, error) {
	mode, err := harness.ParseCampaignMode(s.Mode)
	if err != nil {
		return harness.CampaignConfig{}, err
	}
	cc := harness.CampaignConfig{
		SysCfg:           s.SysCfg,
		TestCfg:          s.TestCfg,
		BaseSeed:         s.BaseSeed,
		Workers:          1, // per-context; parallelism comes from leases
		BatchSize:        s.BatchSize,
		SaturateK:        s.SaturateK,
		MaxSeeds:         s.MaxSeeds,
		Fork:             s.Fork,
		Mode:             mode,
		TraceDepth:       s.TraceDepth,
		CaptureArtifacts: s.Artifacts,
	}
	if err := cc.Validate(); err != nil {
		return harness.CampaignConfig{}, fmt.Errorf("campaignd: %w", err)
	}
	return cc, nil
}

// leaseTimeout resolves the spec's lease timeout against the daemon
// default.
func (s Spec) leaseTimeout(def time.Duration) time.Duration {
	if s.LeaseTimeoutMs > 0 {
		return time.Duration(s.LeaseTimeoutMs) * time.Millisecond
	}
	if def > 0 {
		return def
	}
	return DefaultLeaseTimeout
}

// Lease is one unit of work: a contiguous slice of one batch's seeds,
// plus the corner level vector the seeds run under (the corner itself
// is reconstructed worker-side; it is a pure function of the spec's
// base configs and the levels).
type Lease struct {
	Campaign string `json:"campaign"`
	// Batch is the batch index; Lease the shard index within it. A
	// result echoes both so the daemon can drop stale or duplicate
	// submissions at the barrier.
	Batch int `json:"batch"`
	Lease int `json:"lease"`
	// Seeds are First..First+Count-1.
	First  uint64               `json:"first"`
	Count  int                  `json:"count"`
	Levels harness.CornerLevels `json:"levels"`
}

// Lease poll statuses.
const (
	// StatusLease: the response carries a lease to execute.
	StatusLease = "lease"
	// StatusWait: no work right now; poll again.
	StatusWait = "wait"
	// StatusShutdown: the daemon is draining; the worker should exit.
	StatusShutdown = "shutdown"
)

// LeaseRequest is the body of POST /lease: a long-poll for work.
type LeaseRequest struct {
	Schema int `json:"schema"`
	// Worker identifies the polling worker (diagnostics and the
	// active-worker metric only — the daemon never keys correctness on
	// it).
	Worker string `json:"worker"`
	// WaitMs bounds the long poll; the daemon responds StatusWait when
	// it elapses with no work.
	WaitMs int64 `json:"waitMs,omitempty"`
}

// LeaseResponse answers a lease poll.
type LeaseResponse struct {
	Status string `json:"status"`
	Lease  *Lease `json:"lease,omitempty"`
	// Spec is the admitted spec of the lease's campaign, so a worker
	// seeing the campaign for the first time can build its run context
	// without another round trip.
	Spec *Spec `json:"spec,omitempty"`
}

// SparseCell is one nonzero coverage cell on the wire. A whole lease's
// coverage delta is the list of its nonzero cells — for a protocol
// table of a few hundred cells this is a handful of integers per
// lease, versus two full matrices per seed.
type SparseCell struct {
	S int    `json:"s"`
	E int    `json:"e"`
	N uint64 `json:"n"`
}

// LeaseResult is the body of POST /results: one executed lease's
// merge-ready outcome.
type LeaseResult struct {
	Schema   int    `json:"schema"`
	Campaign string `json:"campaign"`
	Batch    int    `json:"batch"`
	Lease    int    `json:"lease"`
	Worker   string `json:"worker,omitempty"`
	// Seeds is the number of seeds executed (must equal the lease's
	// Count; the daemon rejects short results).
	Seeds int `json:"seeds"`
	// L1/L2 are the sparse coverage deltas.
	L1 []SparseCell `json:"l1,omitempty"`
	L2 []SparseCell `json:"l2,omitempty"`
	// Failures carry each failing seed's failures plus its replay
	// artifact inline (Spec.Artifacts set).
	Failures []harness.SeedFailure `json:"failures,omitempty"`
	Ops      uint64                `json:"ops"`
	Events   uint64                `json:"events"`
	WallNs   int64                 `json:"wallNs"`
}

// SparseFromMatrix lists m's nonzero cells in row-major order.
func SparseFromMatrix(m *coverage.Matrix) []SparseCell {
	var out []SparseCell
	for i := range m.Hits {
		for j, n := range m.Hits[i] {
			if n != 0 {
				out = append(out, SparseCell{S: i, E: j, N: n})
			}
		}
	}
	return out
}

// AddSparse folds a sparse delta into dst, bounds-checking every cell
// (wire data is untrusted).
func AddSparse(dst *coverage.Matrix, cells []SparseCell) error {
	for _, c := range cells {
		if c.S < 0 || c.S >= len(dst.Hits) || c.E < 0 || c.E >= len(dst.Hits[c.S]) {
			return fmt.Errorf("sparse cell [%d,%d] outside %s's %dx%d table",
				c.S, c.E, dst.Spec.Name, len(dst.Hits), len(dst.Spec.Events))
		}
		dst.Hits[c.S][c.E] += c.N
	}
	return nil
}

// resultToDelta decodes a wire result into a merge-ready BatchDelta
// over freshly allocated matrices shaped by the campaign's specs.
func resultToDelta(res *LeaseResult, l1Spec, l2Spec *protocol.Spec) (harness.BatchDelta, error) {
	d := harness.BatchDelta{
		L1:       coverage.NewMatrix(l1Spec),
		L2:       coverage.NewMatrix(l2Spec),
		Failures: res.Failures,
		Seeds:    res.Seeds,
		Ops:      res.Ops,
		Events:   res.Events,
		Wall:     time.Duration(res.WallNs),
	}
	if err := AddSparse(d.L1, res.L1); err != nil {
		return d, err
	}
	return d, AddSparse(d.L2, res.L2)
}
