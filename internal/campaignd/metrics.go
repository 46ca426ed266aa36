package campaignd

import "sync/atomic"

// Metrics is the daemon's expvar-style counter set, served as JSON by
// GET /metrics. All counters are monotonic totals since daemon start;
// gauges (active workers, campaign states) are computed at snapshot
// time from live server state.
type Metrics struct {
	// SeedsRun counts the seeds of merged batches: a batch run ahead
	// and then dropped (DESIGN §14.3) ran seeds no campaign reports.
	SeedsRun       atomic.Uint64
	BatchesMerged  atomic.Uint64
	CellsActivated atomic.Uint64
	LeasesIssued   atomic.Uint64
	// LeasesChained counts the leases handed out in a result answer,
	// LeasesAhead those issued before their batch became current; the
	// rest of LeasesIssued answered a POST /lease poll.
	LeasesChained      atomic.Uint64
	LeasesAhead        atomic.Uint64
	LeasesExpired      atomic.Uint64
	LeasesCompleted    atomic.Uint64
	ResultsDropped     atomic.Uint64
	Artifacts          atomic.Uint64
	CampaignsSubmitted atomic.Uint64
	CampaignsCompleted atomic.Uint64
}

// snapshot renders the counters as the /metrics JSON payload; the
// server adds its gauges on top.
func (m *Metrics) snapshot() map[string]any {
	return map[string]any{
		"seedsRun":           m.SeedsRun.Load(),
		"batchesMerged":      m.BatchesMerged.Load(),
		"cellsActivated":     m.CellsActivated.Load(),
		"leasesIssued":       m.LeasesIssued.Load(),
		"leasesChained":      m.LeasesChained.Load(),
		"leasesAhead":        m.LeasesAhead.Load(),
		"leasesExpired":      m.LeasesExpired.Load(),
		"leasesCompleted":    m.LeasesCompleted.Load(),
		"resultsDropped":     m.ResultsDropped.Load(),
		"artifacts":          m.Artifacts.Load(),
		"campaignsSubmitted": m.CampaignsSubmitted.Load(),
		"campaignsCompleted": m.CampaignsCompleted.Load(),
	}
}
