package viper

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the field sets of the System, its
// controllers, their state structs and the wait-list they queue stalled
// work on, so a new field cannot silently escape Snapshot/Restore/Reset
// (see package audit). A controller's run state is its embedded state
// struct, which one copyFrom saves, restores and resets; what that copy
// does with each field is pinned behaviorally by the harness
// bit-identity tests. One controller field is outside every copy path
// on purpose: TCC.auditBuf is scratch — written and read within
// one AuditAgainstStore call, dead between calls (TestAuditL2Allocs
// pins what it buys).
func TestSnapshotFieldAudit(t *testing.T) {
	const (
		config   = "config: fixed at construction, survives reset/restore"
		prebound = "config: prebound closure(s), built once, survive reset/restore"
		copied   = "state: copied by copyFrom"
		cutBySys = "state: cut and reset by the System (arrays, links, lats)"
	)
	states := func(names ...string) map[string]string {
		m := map[string]string{}
		for _, n := range names {
			m[n] = copied
		}
		return m
	}
	audit.Fields(t, waitList[int, int]{}, map[string]string{
		"lists": "state: the waiting values per key — drop empties, copyFrom copies the table and then every list",
		"free":  "pool: drained lists' storage, kept across drop and copyFrom; not part of a cut",
	})
	audit.Fields(t, tcpState{}, states("atomicTBEs", "loadTBEs", "stalled", "wt", "wtWords",
		"loads", "loadHits", "stores", "atomics", "stalls"))
	audit.Fields(t, tccState{}, states("tbes", "stalled", "stalledProbes", "wbs",
		"rdBlks", "wrVicBlks", "atomicsSeen", "fills", "stalls", "wbAcks", "droppedMerges", "droppedAcks", "evictWBs", "unserializedAtomics"))
	audit.Fields(t, l2State{}, map[string]string{
		"tcc":  "cut: the slice's tccState, through copyFrom",
		"tbes": "cut: the TBE pool's contents and free order",
	})
	audit.Fields(t, tccTBE{}, map[string]string{
		"kind": "state: copied with the TBE", "line": "state: copied with the TBE", "cu": "state: copied with the TBE",
		"req": "state: copied with the TBE", "probed": "state: copied with the TBE",
		"pending": "state: copied with the TBE; the line pool's cut restores the line",
		"retryFn": "config: prebound to its TBE for life",
	})
	audit.Fields(t, seqState{}, states("pendingWT", "heldReleases", "outstanding", "respQ", "respHead",
		"issued", "completed", "skippedInvalidates"))
	audit.Fields(t, TCP{}, map[string]string{
		"tcpState": copied,
		"k":        config, "id": config, "machine": config, "sliceOf": config, "seq": config, "pool": config,
		"bugs": config, "toTCC": config + "; the links are cut via System.links",
		"array":   cutBySys,
		"sendFns": prebound,
	})
	audit.Fields(t, TCC{}, map[string]string{
		"tccState": copied,
		"k":        config, "sliceIndex": config, "machine": config, "backend": config, "tcps": config,
		"bugs": config, "pool": config, "retryDelay": config,
		"wb": config, "stIV": config, "stA": config, "dirty": config, "auditWhat": config,
		"array":       cutBySys,
		"toTCP":       config + "; the links are cut via System.links",
		"auditBuf":    "scratch: dead between AuditAgainstStore calls",
		"tbePool":     "pool: every TBE built; save copies their contents and the free order, load and reset write them back",
		"sendFns":     prebound,
		"fetchDoneFn": prebound, "atomicDoneFn": prebound, "wbAckFn": prebound, "noopWBFn": prebound,
	})
	audit.Fields(t, Sequencer{}, map[string]string{
		"seqState": copied,
		"k":        config, "cu": config, "tcp": config, "client": config, "respLatency": config, "bugs": config, "unit": config,
		"deliverFn": prebound,
		"scratch":   "scratch: valid only during one HandleResponse",
		"lat":       cutBySys,
	})
	audit.Fields(t, System{}, map[string]string{
		"Kernel": "config: owning kernel, snapshotted separately",
		"Cfg":    "config: fixed at construction",
		"Seqs":   "state: seqState and latency histograms per sequencer",
		"TCPs":   "state: tcpState per L1",
		"TCCs":   "state: one l2State per slice, through save/load",
		"Mem":    "state: memory-controller snapshot (COW store included)",
		"faults": "state: Snapshot/Restore copy the slice",
		"jrnd":   "state: jitter PCG copied by value",
		"arrays": "state: every cache array, cut and reset in this order",
		"links":  "state: every link, cut and reset in this order",
		"pool":   "pool: registries captured only when tracking (EnableCheckpointing)",
	})
}

// TestNoMaps pins that the memory system's run state and its snapshots
// hold no Go map (see audit.NoMaps); the backing store's page map
// beyond the page directory's reach is the one exception.
func TestNoMaps(t *testing.T) {
	for _, v := range []any{TCP{}, TCC{}, Sequencer{}, msgPool{}, System{}, SystemSnapshot{}} {
		audit.NoMaps(t, v, "Store.far")
	}
}
