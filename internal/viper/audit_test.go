package viper

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the System's top-level field set so a
// new subsystem cannot silently escape Snapshot/Restore/Reset (see
// package audit). The per-controller structs are deep and evolve
// faster; their snapshot completeness is pinned behaviorally by the
// harness bit-identity tests instead. One controller field is outside
// every copy path on purpose: TCC/TCCWB.auditBuf is scratch — written
// and read within one AuditAgainstStore call, dead between calls
// (TestAuditL2Allocs pins what it buys).
func TestSnapshotFieldAudit(t *testing.T) {
	audit.Fields(t, System{}, map[string]string{
		"Kernel":    "config: owning kernel, snapshotted separately",
		"Cfg":       "config: fixed at construction",
		"Seqs":      "state: per-sequencer snapshots",
		"TCPs":      "state: per-L1 snapshots",
		"TCC":       "state: first l2s entry, snapshotted via l2s",
		"TCCs":      "state: aliases l2s entries, snapshotted via l2s",
		"l2s":       "state: per-L2 snapshots through the l2ctrl interface",
		"Mem":       "state: memory-controller snapshot (COW store included)",
		"faults":    "state: Snapshot/Restore copy the slice",
		"jrnd":      "state: jitter PCG copied by value",
		"respXBars": "state: captured within the per-controller link snapshots",
		"pool":      "pool: registries captured only when tracking (EnableCheckpointing)",
	})
}
