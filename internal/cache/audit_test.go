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
		"Valid":   "state: via lineHdr / journal; Restore invalidates every line not in the snapshot",
		"State":   "state: via lineHdr / journal",
		"Data":    "state: slab-aliased bytes, live lines copied via the snapshot's data slab / journal copies",
		"Dirty":   "state: slab-aliased flags, live lines copied via the snapshot's dirty slab / journal copies",
		"lastUse": "state: via lineHdr / journal; Restore zeroes every line not in the snapshot",
		"epoch":   "snapshot bookkeeping: journaled-this-epoch marker, reset on re-arm",
	})
	audit.Fields(t, Array{}, map[string]string{
		"cfg":      "config: fixed at construction",
		"sets":     "config: views into the slabs, survive Reset/Restore",
		"useClock": "state: Reset zeroes, Snapshot/Restore copy",
		"lines":    "state slab: Snapshot copies the live lines, Restore reinstalls them; journal copies per line",
		"lookups":  "stats: ResetStats zeroes, Snapshot/Restore copy",
		"hits":     "stats: ResetStats zeroes, Snapshot/Restore copy",
		"snap":     "snapshot bookkeeping: armed snapshot, Reset disarms",
		"epoch":    "snapshot bookkeeping: arming generation",
		"journal":  "snapshot bookkeeping: undo log since arming",
	})
	audit.Fields(t, ArraySnapshot{}, map[string]string{
		"hdrs":     "cut: one lineHdr per live line (valid or LRU-stamped), refilled in place",
		"data":     "cut: the live lines' bytes, LineSize each, parallel to hdrs",
		"dirty":    "cut: the live lines' dirty masks, parallel to hdrs",
		"useClock": "cut: copied",
		"lookups":  "cut: copied",
		"hits":     "cut: copied",
	})
	audit.Fields(t, lineHdr{}, map[string]string{
		"idx":     "cut: the line's index in Array.lines",
		"valid":   "cut: Line.Valid",
		"state":   "cut: Line.State",
		"tag":     "cut: Line.Tag",
		"lastUse": "cut: Line.lastUse",
	})
}
