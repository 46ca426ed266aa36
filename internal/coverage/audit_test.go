package coverage

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the field sets of the snapshotted
// structs so a new field cannot silently escape
// Snapshot/Restore/Reset (see package audit).
func TestSnapshotFieldAudit(t *testing.T) {
	audit.Fields(t, Collector{}, map[string]string{
		"matrices": "state: per-machine hit tables in registration order; Reset zeroes, Snapshot/Restore copy in place",
	})
	audit.Fields(t, Matrix{}, map[string]string{
		"Spec": "config: protocol shape, survives Reset/Restore",
		"Hits": "state: hit counters; rows are restored in place (bound machines hold direct references)",
	})
}
