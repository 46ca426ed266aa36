package checker

import (
	"testing"

	"drftest/internal/audit"
)

// TestStreamFieldAudit pins the field sets of the online checker's
// fold state against Reset/Snapshot/Restore (see package audit): the
// stream is now part of the tester's checkpoint cut, so a field that
// escapes these paths breaks replay-bisection bit-identity with
// StreamCheck armed. The ring is deliberately NOT cut state: the first
// cut drains and drops it, so the folds alone are the cut — a ring
// field must stay meaningless at a quiescent point.
func TestStreamFieldAudit(t *testing.T) {
	audit.Fields(t, Stream{}, map[string]string{
		"delta":     "state: copied (Reset retunes it from config)",
		"ring":      "scratch: the worker's handoff, excluded — SnapshotInto and Restore drain it and drop it first, so a cut holds only folds",
		"eps":       "state: rebuilt from the snapshot's epState records (live known + unknown entries)",
		"epFree":    "pool: recycled epStates, excluded — dropped records are harvested back on Reset/Restore",
		"epChunk":   "scratch: uncarved tail of the chunk new epStates are carved from, excluded — a cut saves episode values, never a record, and a restore refills records from epFree or the chunk",
		"spill":     "scratch: free spill arrays, excluded — a cut copies list values, never an array, and a restore refills lists from the pools",
		"liveQ":     "state: rebuilt from the snapshot's leading nLive epState records, dead heads included",
		"liveHead":  "state: normalized to 0 on Restore (only order and dead flags are semantic)",
		"atomics":   "state: per-sync-var A1 fold indexed by id, copied in place (pending multiset deep-copied); entries past len are stale storage, emptied when observed into range",
		"vars":      "state: per-data-var A2/A3 folds indexed by id in chunks kept for life, the first nvars copied in place (intervals/writers deep-copied); folds past nvars are stale storage, emptied when observed into range",
		"nvars":     "state: data variable ids in use, copied (the cut's vars length); Reset zeroes it",
		"a2unknown": "state: violation bucket, slice-copied",
		"a2overlap": "state: violation bucket, slice-copied",
		"a3":        "state: violation bucket, slice-copied",
		"finished":  "state: copied (a mid-run cut reopens a Finish-sealed stream)",
		"result":    "state: slice-copied alongside finished",
	})
	audit.Fields(t, epState{}, map[string]string{
		"id":         "state: via saveEp/loadEp",
		"createSeq":  "state: via saveEp/loadEp",
		"known":      "state: via saveEp/loadEp (unknown records live only in the eps table)",
		"dead":       "state: via saveEp/loadEp (dead records live only in the liveQ)",
		"ownWrites":  "state: deep copy into the snapshot's ownWrites arena; loadEp refills it in the destination's inline buffer or a spill array of its stream's pool",
		"touched":    "state: deep copy into the snapshot's touched arena; loadEp refills it in the destination's inline buffer or a spill array of its stream's pool",
		"ownBuf":     "storage: ownWrites' inline array, holding them until they spill; its contents are ownWrites'",
		"touchedBuf": "storage: touched's inline array, holding it until it spills; its contents are touched's",
	})
	audit.Fields(t, epSave{}, map[string]string{
		"id":        "save: value copy",
		"createSeq": "save: value copy",
		"known":     "save: value copy",
		"dead":      "save: value copy",
		"ownWrites": "save: range of the snapshot's ownWrites arena",
		"touched":   "save: range of the snapshot's touched arena",
	})
	audit.Fields(t, varState{}, map[string]string{
		"intervals": "state: deep copy into the snapshot's intervals arena via saveVar/loadVar",
		"prev":      "state: value copy via saveVar/loadVar",
		"hasPrev":   "state: value copy via saveVar/loadVar",
		"writers":   "state: deep copy into the snapshot's writers arena via saveVar/loadVar",
		"ivalBuf":   "storage: intervals' inline array, holding them until they spill; its contents are intervals'",
		"writerBuf": "storage: writers' inline array, holding them until they spill; its contents are writers'",
	})
	audit.Fields(t, spills{}, map[string]string{
		"intervals": "scratch: free interval arrays, never part of a cut",
		"writers":   "scratch: free writer arrays, never part of a cut",
		"touched":   "scratch: free touched-variable arrays, never part of a cut",
		"ownWrites": "scratch: free own-write arrays, never part of a cut",
	})
	audit.Fields(t, spillPool[ival]{}, map[string]string{
		"classes": "scratch: per-capacity free arrays and chunks, never part of a cut",
	})
	audit.Fields(t, spillClass[ival]{}, map[string]string{
		"free":   "scratch: free arrays of the class, never part of a cut — a cut copies list values, never an array",
		"chunk":  "scratch: uncarved tail of the chunk new arrays of the class are carved from, never part of a cut",
		"carved": "scratch: arrays carved so far, sizing free so that giving one back never grows it",
	})
	audit.Fields(t, varSave{}, map[string]string{
		"intervals": "save: range of the snapshot's intervals arena",
		"prev":      "save: value copy",
		"hasPrev":   "save: value copy",
		"writers":   "save: range of the snapshot's writers arena",
	})
	audit.Fields(t, atomicState{}, map[string]string{
		"contig":  "state: value copy via copyAtomic",
		"pending": "state: table CopyFrom via copyAtomic, into the destination's own table",
		"npend":   "state: value copy via copyAtomic",
	})
}

// TestPipelineFieldAudit pins the field set of the ring that hands
// events from the tester to the online checker's worker. The ring and
// its indices are deliberately NOT snapshot state: SnapshotInto and
// Restore drain it first, so the Stream's folds alone are the cut — a
// field added here must either stay meaningless at a quiescent point or
// be folded into that doctrine explicitly.
func TestPipelineFieldAudit(t *testing.T) {
	audit.Fields(t, ring{}, map[string]string{
		"slots":    "scratch: drained before every cut, so never part of one; allocated by the first start",
		"wr":       "scratch: producer-private write index; join publishes it, so it equals tail and head whenever the worker is retired; Reset rewinds it",
		"head":     "scratch: equals tail whenever the worker is retired; Reset rewinds it",
		"tail":     "scratch: equals head whenever the worker is retired; Reset rewinds it",
		"sleeping": "scratch: worker parking handshake, meaningless once the worker is retired",
		"notify":   "scratch: worker wake-up channel of capacity 1, made at construction",
		"stop":     "scratch: worker lifecycle channel, remade by each start",
		"done":     "scratch: worker lifecycle channel, remade by each start",
		"running":  "scratch: worker lifecycle flag; Finish, Reset and Close retire the worker, the next event revives it",
	})
}

// TestNoMaps pins that the online checker's fold state and its cut hold
// no Go map (see audit.NoMaps); the post-hoc checker's maps are locals
// of one call, not state.
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, Stream{})
	audit.NoMaps(t, StreamSnapshot{})
}
