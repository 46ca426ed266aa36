package checker

import (
	"testing"

	"drftest/internal/audit"
)

// TestStreamFieldAudit pins the field sets of the online checker's
// fold state against Reset/Snapshot/Restore (see package audit): the
// stream is now part of the tester's checkpoint cut, so a field that
// escapes these paths breaks replay-bisection bit-identity with
// StreamCheck armed.
func TestStreamFieldAudit(t *testing.T) {
	audit.Fields(t, Stream{}, map[string]string{
		"delta":      "state: copied (Reset retunes it from config)",
		"eps":        "state: rebuilt from the snapshot's epState records (live known + unknown entries)",
		"epFree":     "pool: recycled epStates, excluded — dropped records are harvested back on Reset/Restore",
		"liveQ":      "state: rebuilt from the snapshot's leading nLive epState records, dead heads included",
		"liveHead":   "state: normalized to 0 on Restore (only order and dead flags are semantic)",
		"atomics":    "state: per-sync-var A1 fold via atomicSave (pending multiset deep-copied)",
		"data":       "state: per-data-var A2/A3 fold via varSave (intervals/writers deep-copied)",
		"atomicFree": "pool: atomicStates a Restore displaced, refilled by the next Restore; excluded from cuts",
		"varFree":    "pool: varStates a Restore displaced, refilled by the next Restore or new variable; excluded from cuts, emptied by Reset with the slab it points into",
		"varSlab":    "pool: chunked storage of every varState (and the first capacity of its slices), excluded from cuts; Reset rewinds it",
		"varNext":    "pool: records handed out of varSlab since the last Reset; a Restore recycles through varFree and never rewinds",
		"a2unknown":  "state: violation bucket, slice-copied",
		"a2overlap":  "state: violation bucket, slice-copied",
		"a3":         "state: violation bucket, slice-copied",
		"finished":   "state: copied (a mid-run cut reopens a Finish-sealed stream)",
		"result":     "state: slice-copied alongside finished",
	})
	audit.Fields(t, epState{}, map[string]string{
		"id":        "state: via copyEp",
		"createSeq": "state: via copyEp",
		"known":     "state: via copyEp (unknown records live only in the eps table)",
		"dead":      "state: via copyEp (dead records live only in the liveQ)",
		"ownWrites": "state: deep slice copy via copyEp, into the destination's own backing array",
		"touched":   "state: deep slice copy via copyEp, into the destination's own backing array",
	})
	audit.Fields(t, varState{}, map[string]string{
		"intervals": "state: deep slice copy via copyVar",
		"prev":      "state: value copy via copyVar",
		"hasPrev":   "state: value copy via copyVar",
		"writers":   "state: deep slice copy via copyVar",
	})
	audit.Fields(t, atomicState{}, map[string]string{
		"contig":  "state: value copy via copyAtomic",
		"pending": "state: table CopyFrom via copyAtomic, into the destination's own table",
		"npend":   "state: value copy via copyAtomic",
	})
}

// TestPipelineFieldAudit pins the Pipeline's field set. The ring and
// its indices are deliberately NOT snapshot state: Snapshot/Restore
// flush the ring first, so the Stream alone is the cut — a field
// added here must either stay derivable from quiescence or be folded
// into that doctrine explicitly.
func TestPipelineFieldAudit(t *testing.T) {
	audit.Fields(t, Pipeline{}, map[string]string{
		"stream":   "state: the cut itself, via Stream.Snapshot/Restore after Flush",
		"force":    "config: fixed at construction (tester rebuilds the pipeline when the knob changes)",
		"inline":   "config: mode pinned at construction from force/GOMAXPROCS",
		"ring":     "excluded: drained by Flush before every cut, so never part of one",
		"mask":     "config: ring capacity mask, fixed at construction",
		"wr":       "excluded: producer-private write index; Flush and join publish it, so it equals tail and head at every cut, rewound by Reset only",
		"head":     "excluded: equals tail at every cut (quiescence), rewound by Reset only",
		"tail":     "excluded: equals head at every cut (quiescence), rewound by Reset only",
		"sleeping": "worker parking handshake, meaningless at a quiescent cut",
		"notify":   "worker parking channel, config-like (rebuilt never; capacity 1)",
		"stop":     "worker lifecycle channel, remade by each start()",
		"done":     "worker lifecycle channel, remade by each start()",
		"running":  "worker lifecycle flag; Finish/Reset retire the worker, push revives it",
	})
}

// TestNoMaps pins that the online checker's fold state and its cut hold
// no Go map (see audit.NoMaps); the post-hoc checker's maps are locals
// of one call, not state.
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, Stream{})
	audit.NoMaps(t, StreamSnapshot{})
	audit.NoMaps(t, Pipeline{})
}
