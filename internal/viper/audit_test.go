package viper

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the field sets of the System, its
// controllers and the wait-list they queue stalled work on, so a new
// field cannot silently escape Snapshot/Restore/Reset (see package
// audit). What the controllers' copy paths do with each field is
// pinned behaviorally by the harness bit-identity tests. One controller
// field is outside every copy path on purpose: TCC/TCCWB.auditBuf is
// scratch — written and read within one AuditAgainstStore call, dead
// between calls (TestAuditL2Allocs pins what it buys).
func TestSnapshotFieldAudit(t *testing.T) {
	const (
		config    = "config: fixed at construction, survives reset/restore"
		stat      = "stats: reset zeroes, snapshot/restore copy"
		prebound  = "config: prebound closure(s), built once, survive reset/restore"
		recycling = "pool: recycled records, interchangeable and reinitialized on reuse; not part of a cut"
		waiting   = "state: wait-list — reset drops it, snapshot/restore go through its save/load"
	)
	audit.Fields(t, waitList[int, int]{}, map[string]string{
		"lists": "state: the waiting values per key — drop empties, save copies every list, load rebuilds them",
		"free":  "pool: drained lists' storage, kept across drop and load; not part of a cut",
	})
	audit.Fields(t, listSave[int, int]{}, map[string]string{
		"key":  "save: the list's key",
		"vals": "save: a private copy of the list, refilled in place",
	})
	audit.Fields(t, TCP{}, map[string]string{
		"k": config, "id": config, "machine": config, "sliceOf": config, "seq": config, "pool": config,
		"array":   "state: cache.Array reset/snapshot/restore",
		"toTCC":   "state: per-link reset/snapshot/restore",
		"tbes":    "state: reset recycles, snapshot saves by value, restore rebuilds",
		"tbeFree": recycling,
		"sendFns": prebound,
		"stalled": waiting,
		"wt":      "state: reset recycles the headers, snapshot saves by value, restore rebuilds",
		"wtFree":  recycling,
		"loads":   stat, "loadHits": stat, "stores": stat, "atomics": stat, "stalls": stat,
	})
	audit.Fields(t, TCC{}, map[string]string{
		"k": config, "sliceIndex": config, "machine": config, "backend": config, "tcps": config,
		"bugs": config, "pool": config, "retryDelay": config,
		"array":         "state: cache.Array reset/snapshot/restore",
		"toTCP":         "state: crossbar reset/snapshot/restore",
		"auditBuf":      "scratch: dead between AuditAgainstStore calls",
		"tbes":          "state: reset recycles, snapshot/restore copy the map (TBE contents via allTBEs)",
		"tbeFree":       "state: the free order is part of a cut (TBE identity is captured by backend continuations)",
		"allTBEs":       "registry: every TBE built; snapshot saves their contents in this order, restore writes them back",
		"stalled":       waiting + "; reset returns the messages to the pool",
		"stalledProbes": waiting,
		"sendFns":       prebound,
		"wbs":           "state: reset clears, snapshot/restore copy",
		"fetchDoneFn":   prebound, "atomicDoneFn": prebound, "wbAckFn": prebound, "noopWBFn": prebound,
		"rdBlks": stat, "wrVicBlks": stat, "atomicsSeen": stat, "fills": stat, "stalls": stat,
		"wbAcks": stat, "droppedMerges": stat, "droppedAcks": stat,
	})
	audit.Fields(t, TCCWB{}, map[string]string{
		"k": config, "sliceIndex": config, "machine": config, "backend": config, "tcps": config,
		"bugs": config, "pool": config,
		"array":       "state: cache.Array reset/snapshot/restore",
		"toTCP":       "state: crossbar reset/snapshot/restore",
		"auditBuf":    "scratch: dead between AuditAgainstStore calls",
		"tbes":        "state: reset clears, snapshot saves by value, restore rebuilds",
		"stalled":     waiting + "; reset returns the messages to the pool",
		"vicWBs":      "state: reset clears, snapshot/restore copy",
		"sendFns":     prebound,
		"fetchDoneFn": prebound, "vicWBAckFn": prebound,
		"rdBlks": stat, "wrVicBlks": stat, "atomicsSeen": stat, "fills": stat, "stalls": stat, "evictWBs": stat,
	})
	audit.Fields(t, Sequencer{}, map[string]string{
		"k": config, "cu": config, "tcp": config, "client": config, "respLatency": config, "bugs": config, "unit": config,
		"pendingWT":    "state: reset clears, snapshot/restore copy",
		"heldReleases": waiting,
		"outstanding":  "state: reset clears, snapshot/restore copy",
		"respQ":        "state: reset clears, snapshot/restore copy from the head",
		"respHead":     "state: reset/restore zero it (queue normalized)",
		"deliverFn":    prebound,
		"scratch":      "scratch: valid only during one HandleResponse; reset/restore zero it",
		"lat":          "stats: histograms, reset/snapshot/restore",
		"issued":       stat, "completed": stat,
	})
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
