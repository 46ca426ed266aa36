package core

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the field sets of the structs
// Snapshot/Restore copy field-by-field, so a new field cannot
// silently escape them (see package audit). Structs captured by
// wholesale value copy (variable and episode, via copyVar and
// copyEpisode) are audited too:
// a new reference-typed field there would alias between snapshot
// and live state.
func TestSnapshotFieldAudit(t *testing.T) {
	audit.Fields(t, Tester{}, map[string]string{
		"k":               "config: owning kernel, snapshotted separately",
		"cfg":             "state: Snapshot/Restore copy (Reset may retune it)",
		"systems":         "config: attached systems, snapshotted separately",
		"seqs":            "config: flattened sequencer list, survives Reset/Restore",
		"rnd":             "state: PCG copied by value in Snapshot/Restore",
		"space":           "state: slab vars + addrs via spaceSave",
		"threads":         "state: per-thread progress + live episode via threadSave",
		"wfs":             "state: outstanding/finished via wfSave (issueFn is config)",
		"log":             "state: rolling-log cut via trace.Log.SnapshotInto/Restore",
		"failures":        "state: Snapshot/Restore copy the slice",
		"lastWorkTick":    "state: Snapshot/Restore copy",
		"genSeq":          "state: Snapshot/Restore copy",
		"trace":           "state: ops slice captured when recording (traceOps)",
		"stream":          "state: checker cut via Pipeline.Snapshot/Restore (ring flushed first, so the Stream alone is the cut)",
		"epMeta":          "state: one record per episode created, by ID, copied when recording",
		"nextReqID":       "state: Snapshot/Restore copy",
		"nextEpisodeID":   "state: Snapshot/Restore copy",
		"storeValue":      "state: Snapshot/Restore copy",
		"finishedWFs":     "state: Snapshot/Restore copy",
		"done":            "state: Snapshot/Restore copy",
		"reqSlab":         "state: slice header only — slots are write-once per run and re-issued identically",
		"heartbeatFn":     "config: pre-bound poller closure, survives Reset/Restore",
		"epFree":          "pool: excluded from cuts — Restore retires the abandoned live episodes into it and refills them (episodes are interchangeable, fully re-initialized on reuse)",
		"opsIssued":       "state: captured via the snapshot's op counters",
		"opsCompleted":    "state: captured via the snapshot's op counters",
		"episodesRetired": "state: captured via the snapshot's op counters",
		"sampler":         "state: generator counters, copied by value",
	})
	audit.Fields(t, episode{}, map[string]string{
		"id":         "state: via copyEpisode (save and restore are the same copy)",
		"sync":       "state: slab pointer retained by identity",
		"ops":        "state: deep slice copy into the destination's own backing array",
		"next":       "state: copied",
		"createSeq":  "state: copied",
		"traceSeq":   "state: copied",
		"claims":     "state: table CopyFrom into the destination's own (claim kinds by variable ID)",
		"claimOrder": "state: deep slice copy (slab pointers by identity)",
	})
	audit.Fields(t, thread{}, map[string]string{
		"id":           "config: fixed at construction",
		"wf":           "config: fixed at construction",
		"lane":         "config: fixed at construction",
		"ep":           "state: live episode via threadSave.ep/live (a free-list struct refilled on restore)",
		"episodesDone": "state: via threadSave",
		"curOp":        "state: via threadSave",
	})
	audit.Fields(t, wavefront{}, map[string]string{
		"id":          "config: fixed at construction",
		"cu":          "config: fixed at construction",
		"threads":     "config: fixed thread list",
		"outstanding": "state: via wfSave",
		"finished":    "state: via wfSave",
		"issueFn":     "config: pre-bound closure, survives Restore (captures wf, not episode)",
		"issueTag":    "config: fixed per-wavefront event tag, survives Restore",
	})
	audit.Fields(t, variable{}, map[string]string{
		"id":        "state: via copyVar value copy",
		"sync":      "state: via value copy",
		"addr":      "state: via value copy",
		"readers":   "state: via value copy (count of reading episodes)",
		"readerSum": "state: via value copy (wrapping sum of the reading episodes' IDs)",
		"writer":    "state: via value copy",
		"value":     "state: via value copy",
		"seenOld":   "state: table CopyFrom in copyVar, into the destination's own table (nil on data variables)",
		"completed": "state: via value copy",
		"lastWIdx":  "state: via value copy (indexes the space's lastWriters, copied alongside)",
		"pend":      "state: via value copy (the writer episode's latest own store)",
		"pendSet":   "state: via value copy (whether pend holds an issued own store)",
	})
	audit.Fields(t, addressSpace{}, map[string]string{
		"syncVars":    "config: view of the slab's first NumSyncVars entries, survives Restore (slab restored in place)",
		"dataVars":    "config: view of the rest of the slab",
		"words":       "derived: claim words recomputed from the slab by rebuild and by Restore (rederive), not captured",
		"slab":        "state: every entry via copyVar",
		"chosen":      "scratch: regenerated by rebuild, not captured",
		"roles":       "scratch: regenerated by rebuild, not captured",
		"addrs":       "state: random address mapping, copied",
		"lastWriters": "state: last-store records indexed by variable.lastWIdx, copied",
		"free":        "state: exact count of unclaimed data variables — rebuild sets it, claim/release maintain it, spaceSave copies it",
		"unwritten":   "state: exact count of data variables without a writer — as free",
		"lineSize":    "config: fixed at construction",
		"falseShared": "state: a function of the mapping — rebuild computes it, spaceSave copies it",
	})
	audit.Fields(t, spaceSave{}, map[string]string{
		"slab":        "save: every variable via copyVar, refilled in place",
		"addrs":       "save: copied",
		"lastWriters": "save: copied",
		"free":        "save: copied",
		"unwritten":   "save: copied",
		"falseShared": "save: copied",
	})
	audit.Fields(t, EventLog{}, map[string]string{
		"Log": "state: the shared rolling log (embedded trace.Log, audited in internal/trace); Reset empties, SnapshotInto/Restore cut",
	})
	audit.Fields(t, threadSave{}, map[string]string{
		"ep":           "save: the live episode's contents, refilled in place; meaningful only while live",
		"live":         "save: whether the lane had an episode at the cut",
		"episodesDone": "save: copied",
		"curOp":        "save: copied (variable pointer by identity)",
	})
	audit.Fields(t, TesterSnapshot{}, map[string]string{
		"cfg":             "cut: copied",
		"rnd":             "cut: PCG by value",
		"space":           "cut: spaceSave, slab entries refilled via copyVar",
		"threads":         "cut: one threadSave per lane, refilled in place",
		"wfs":             "cut: refilled slice",
		"log":             "cut: trace.LogSnapshot — sealed chunks shared by pointer, open prefix copied",
		"failures":        "cut: refilled pointer slice (failures are immutable once recorded)",
		"lastWorkTick":    "cut: copied",
		"genSeq":          "cut: copied",
		"traceOps":        "cut: refilled slice, empty unless recording",
		"epMeta":          "cut: refilled slice, empty unless recording",
		"stream":          "cut: checker.StreamSnapshot refilled via Pipeline.SnapshotInto, nil without StreamCheck",
		"nextReqID":       "cut: copied",
		"nextEpisodeID":   "cut: copied",
		"storeValue":      "cut: copied",
		"finishedWFs":     "cut: copied",
		"done":            "cut: copied",
		"reqSlab":         "cut: slice header only (slots are write-once per run)",
		"opsIssued":       "cut: copied",
		"opsCompleted":    "cut: copied",
		"episodesRetired": "cut: copied",
		"sampler":         "cut: copied",
	})
}

// TestNoMaps pins that the tester's run state and its cut hold no Go
// map (see audit.NoMaps): claims, old-value sets and the stream
// checker's folds are tables, episode metadata a slice.
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, Tester{}, "Store.far")
	audit.NoMaps(t, TesterSnapshot{})
}
