package network

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the field sets of the snapshotted
// structs so a new field cannot silently escape
// Snapshot/Restore/Reset (see package audit). The audit exists
// because Link once grew run state (msgQ) that a stats-only reset —
// correctly — did not touch: every field needs an explicit home.
func TestSnapshotFieldAudit(t *testing.T) {
	audit.Fields(t, Link{}, map[string]string{
		"k":         "config: owning kernel, survives Reset/Restore",
		"name":      "config: fixed at construction",
		"latency":   "config: fixed at construction",
		"jitter":    "config: retuned only via SetJitter between runs",
		"rnd":       "config: jitter stream owned and reseeded by the owning system",
		"msgQ":      "state: queued typed messages in delivery order — Reset clears, Snapshot/Restore copy (normalized to head 0)",
		"msgHead":   "state: Reset/Restore zero it (queue normalized)",
		"deliverFn": "config: pre-bound drain closure, survives Reset/Restore",
		"unit":      "config: schedule-exploration ordering domain, fixed at construction",
		"sent":      "stats: Reset zeroes, Snapshot/Restore copy",
	})
	audit.Fields(t, pendingMsg{}, map[string]string{
		"fn":  "state: copied by Link.Snapshot; pooled handler, identity-stable",
		"arg": "state: copied by pointer — pooled message contents are restored by the pool owner",
		"at":  "state: delivery tick, the queue's sort key; copied with the entry",
	})
	audit.Fields(t, LinkSnapshot{}, map[string]string{
		"msgs": "cut: the queue from its head, refilled in place",
		"sent": "cut: copied",
	})
}
