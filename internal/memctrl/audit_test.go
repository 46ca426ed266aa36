package memctrl

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the Controller's field set so a new
// field cannot silently escape Snapshot/Restore/Reset (see package
// audit).
func TestSnapshotFieldAudit(t *testing.T) {
	audit.Fields(t, Controller{}, map[string]string{
		"k":          "config: owning kernel, survives Reset/Restore",
		"cfg":        "config: fixed at construction",
		"store":      "state: backing store, snapshotted via its own COW Snapshot",
		"queue":      "state: ring of waiting and in-flight requests; Reset clears (dropping payload refs; owning system reclaims via pool Reset); Snapshot linearizes with the in-flight count, retaining payload handles by identity",
		"busy":       "state: Reset clears, Snapshot/Restore copy",
		"serviceFn":  "config: pre-bound closure, survives Reset/Restore",
		"completeFn": "config: pre-bound closure, survives Reset/Restore",
		"unit":       "config: schedule-exploration ordering domain, fixed at construction",
		"pool":       "pool: shared line pool; the owning system snapshots/resets it at the same cut (private pools are quiescent between runs)",
		"reads":      "stats: ResetStats zeroes, Snapshot/Restore copy",
		"writes":     "stats: ResetStats zeroes, Snapshot/Restore copy",
		"atomics":    "stats: ResetStats zeroes, Snapshot/Restore copy",
		"peakQueue":  "stats: ResetStats zeroes, Snapshot/Restore copy",
	})
}
