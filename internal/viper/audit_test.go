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
		waiting   = "state: wait-list — reset drops it, snapshot/restore are its copyFrom into and out of a twin"
		keyed     = "state: table — reset clears, snapshot/restore are CopyFrom into and out of a twin"
	)
	audit.Fields(t, waitList[int, int]{}, map[string]string{
		"lists": "state: the waiting values per key — drop empties, copyFrom copies the table and then every list",
		"free":  "pool: drained lists' storage, kept across drop and copyFrom; not part of a cut",
	})
	audit.Fields(t, TCP{}, map[string]string{
		"k": config, "id": config, "machine": config, "sliceOf": config, "seq": config, "pool": config,
		"array":      "state: cache.Array reset/snapshot/restore",
		"toTCC":      "state: per-link reset/snapshot/restore",
		"atomicTBEs": keyed,
		"loadTBEs":   waiting,
		"sendFns":    prebound,
		"stalled":    waiting,
		"wt":         keyed + "; the line handles keep their identity",
		"loads":      stat, "loadHits": stat, "stores": stat, "atomics": stat, "stalls": stat,
	})
	audit.Fields(t, TCC{}, map[string]string{
		"k": config, "sliceIndex": config, "machine": config, "backend": config, "tcps": config,
		"bugs": config, "pool": config, "retryDelay": config,
		"array":         "state: cache.Array reset/snapshot/restore",
		"toTCP":         "state: crossbar reset/snapshot/restore",
		"auditBuf":      "scratch: dead between AuditAgainstStore calls",
		"tbes":          keyed + "; reset recycles the TBEs, whose contents a cut carries via allTBEs",
		"tbeFree":       "state: the free order is part of a cut (TBE identity is captured by backend continuations)",
		"allTBEs":       "registry: every TBE built; snapshot saves their contents in this order, restore writes them back",
		"stalled":       waiting + "; reset returns the messages to the pool",
		"stalledProbes": waiting,
		"sendFns":       prebound,
		"wbs":           keyed,
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
		"tbes":        keyed,
		"stalled":     waiting + "; reset returns the messages to the pool",
		"vicWBs":      keyed,
		"sendFns":     prebound,
		"fetchDoneFn": prebound, "vicWBAckFn": prebound,
		"rdBlks": stat, "wrVicBlks": stat, "atomicsSeen": stat, "fills": stat, "stalls": stat, "evictWBs": stat,
	})
	audit.Fields(t, Sequencer{}, map[string]string{
		"k": config, "cu": config, "tcp": config, "client": config, "respLatency": config, "bugs": config, "unit": config,
		"pendingWT":    keyed,
		"heldReleases": waiting,
		"outstanding":  keyed,
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

// TestNoMaps pins that the memory system's run state and its snapshots
// hold no Go map (see audit.NoMaps). The L2 snapshots travel behind an
// interface, so they are named here; the backing store's page map
// beyond the page directory's reach is the one exception.
func TestNoMaps(t *testing.T) {
	for _, v := range []any{TCP{}, TCC{}, TCCWB{}, Sequencer{}, msgPool{}, System{}, SystemSnapshot{}, tccSnapshot{}, wbSnapshot{}} {
		audit.NoMaps(t, v, "Store.far")
	}
}
