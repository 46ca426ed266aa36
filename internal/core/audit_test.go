package core

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the field sets of the tester, its parts
// and their state structs, so a new field cannot silently escape
// Snapshot/Restore/Reset (see package audit). Each part's run state is
// its embedded state struct, which one copyFrom saves, restores and
// resets; structs copied wholesale by value inside it (variable and
// episode, via copyVar and copyEpisode) are audited too: a new
// reference-typed field there would alias between snapshot and live
// state.
func TestSnapshotFieldAudit(t *testing.T) {
	const (
		copied = "state: copied by copyFrom"
		config = "config: fixed at construction"
	)
	states := func(names ...string) map[string]string {
		m := map[string]string{}
		for _, n := range names {
			m[n] = copied
		}
		return m
	}
	audit.Fields(t, testerState{}, states("cfg", "rnd", "failures", "lastWorkTick", "genSeq", "epMeta",
		"nextReqID", "nextEpisodeID", "storeValue", "finishedWFs", "done",
		"opsIssued", "opsCompleted", "episodesRetired", "sampler"))
	audit.Fields(t, spaceState{}, states("slab", "addrs", "lastWriters", "free", "unwritten", "falseShared"))
	lane := states("ep", "live", "episodesDone", "curOp")
	lane["req"] = "state: copied by copyFrom — the lane's one request, by value, so a restore refills what the memory system's pointer to an in-flight request reads"
	audit.Fields(t, threadState{}, lane)
	audit.Fields(t, wfState{}, map[string]string{
		"outstanding": "state: wfState is copied by value",
		"finished":    "state: wfState is copied by value",
	})
	audit.Fields(t, Tester{}, map[string]string{
		"testerState": copied,
		"k":           "config: owning kernel, snapshotted separately",
		"systems":     "config: attached systems, snapshotted separately",
		"seqs":        "config: flattened sequencer list, survives Reset/Restore",
		"space":       "state: spaceState in TesterSnapshot.space",
		"threads":     "state: threadState per lane in TesterSnapshot.threads",
		"wfs":         "state: wfState per wavefront in TesterSnapshot.wfs",
		"log":         "state: rolling-log cut via trace.Log.SnapshotInto/Restore",
		"trace":       "state: ops slice captured when recording (TesterSnapshot.traceOps)",
		"stream":      "state: checker cut via Stream.SnapshotInto/Restore (the first cut drains and drops the stream's ring, so its folds alone are the cut)",
		"heartbeatFn": "config: pre-bound poller closure, survives Reset/Restore",
	})
	audit.Fields(t, addressSpace{}, map[string]string{
		"spaceState": copied,
		"syncVars":   "config: view of the slab's first NumSyncVars entries, survives Restore (slab restored in place)",
		"dataVars":   "config: view of the rest of the slab",
		"words":      "derived: claim words recomputed from the slab by rebuild and by Restore (rederive), not captured",
		"chosen":     "scratch: regenerated by rebuild, not captured",
		"roles":      "scratch: regenerated by rebuild, not captured",
		"seenOld":    "pool: the sync variables' old-value tables by sync index, cleared and handed out by rebuild; a cut copies their contents through the slab (copyVar), into the same tables on restore",
		"lineSize":   config,
	})
	audit.Fields(t, thread{}, map[string]string{
		"threadState": copied,
		"id":          config, "wf": config,
	})
	audit.Fields(t, wavefront{}, map[string]string{
		"wfState":  "state: copied by value",
		"cu":       config,
		"threads":  "config: fixed thread list",
		"issueFn":  "config: pre-bound closure, survives Restore (captures wf, not episode)",
		"issueTag": "config: fixed per-wavefront event tag, survives Restore",
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
	audit.Fields(t, EventLog{}, map[string]string{
		"Log": "state: the shared rolling log (embedded trace.Log, audited in internal/trace); Reset empties, SnapshotInto/Restore cut",
	})
}

// TestNoMaps pins that the tester's run state and its cut hold no Go
// map (see audit.NoMaps): claims, old-value sets and the stream
// checker's folds are tables, episode metadata a slice.
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, Tester{}, "Store.far")
	audit.NoMaps(t, TesterSnapshot{})
}
