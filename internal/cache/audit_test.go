package cache

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the field sets of the snapshotted
// structs so a new field cannot silently escape
// Snapshot/Restore/Reset or the journal-arming access paths (see
// package audit).
func TestSnapshotFieldAudit(t *testing.T) {
	audit.Fields(t, Line{}, map[string]string{
		"Tag":     "state: via lineHdr (live lines) and the undo journal",
		"valid":   "state: set by Install, cleared by InvalidateLine; stored lines are valid by construction, the journal saves it; Reset/Restore clear every line not in the snapshot",
		"idx":     "structural: index in Array.lines, set once in NewArray, never copied back",
		"State":   "state: via lineHdr / journal",
		"Data":    "state: slab-aliased bytes, live lines copied via the snapshot's data slab / journal copies",
		"lastUse": "state: via lineHdr / journal; zero on every invalid line",
		"epoch":   "snapshot bookkeeping: journaled-this-epoch marker, stale once the array's epoch advances on re-arm",
	})
	audit.Fields(t, Array{}, map[string]string{
		"cfg":       "config: fixed at construction",
		"lineShift": "config: log2(LineSize), fixed at construction",
		"setMask":   "config: Sets()-1, fixed at construction",
		"useClock":  "state: Reset zeroes, Snapshot/Restore copy",
		"lines":     "state slab: Snapshot copies the valid lines, Restore reinstalls them; journal copies per line",
		"live":      "valid-line index: cut via the stored lines, cleared by Reset, rebuilt by Restore from them or bit by bit from the undo records",
		"tags":      "probe row: Tag|1 of each valid line, 0 otherwise; derived from the headers by mark (Install, InvalidateLine, both Restore paths) and clear (Reset, non-armed Restore), never cut",
		"stamps":    "probe row: lastUse of each line; as tags, plus Lookup's touch",
		"lookups":   "stats: ResetStats zeroes, Snapshot/Restore copy",
		"hits":      "stats: ResetStats zeroes, Snapshot/Restore copy",
		"snap":      "snapshot bookkeeping: armed snapshot, Reset disarms",
		"epoch":     "snapshot bookkeeping: arming generation",
		"journal":   "snapshot bookkeeping: undo log since arming",
	})
	audit.Fields(t, ArraySnapshot{}, map[string]string{
		"hdrs":     "cut: one lineHdr per valid line, refilled in place",
		"data":     "cut: the valid lines' bytes, LineSize each, parallel to hdrs",
		"useClock": "cut: copied",
		"lookups":  "cut: copied",
		"hits":     "cut: copied",
	})
	audit.Fields(t, lineHdr{}, map[string]string{
		"idx":     "cut: the line's index in Array.lines",
		"state":   "cut: Line.State",
		"tag":     "cut: Line.Tag",
		"lastUse": "cut: Line.lastUse",
	})
}
