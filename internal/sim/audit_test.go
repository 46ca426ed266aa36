package sim

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the Kernel's field set so a new field
// cannot silently escape Snapshot/Restore/Reset (see package audit).
// Everything a cut copies lives in the embedded state struct, which is
// also the whole of a KernelSnapshot: a field added there is copied by
// state.copyFrom's struct assignment and zeroed by Reset's, and only a
// new slice needs its own line in both.
func TestSnapshotFieldAudit(t *testing.T) {
	audit.Fields(t, Kernel{}, map[string]string{
		"state":    "state: Reset zeroes keeping the arrays, SnapshotInto/Restore are state.copyFrom",
		"tracer":   "config: attached ring, snapshotted separately by its owner",
		"chooser":  "config: attached schedule chooser, survives Reset like the tracer",
		"unitSeq":  "config: unit-ID counter; stale-but-unique across Reset is sound (see NewUnit)",
		"candBuf":  "scratch: rebuilt by buildCandidates before every Choose",
		"candPrev": "scratch: rebuilt by buildCandidates before every Choose",
		"unitSeen": "scratch: rebuilt by buildCandidates before every Choose",
	})
	audit.Fields(t, KernelSnapshot{}, map[string]string{
		"state": "state: the kernel's, copied whole",
	})
	audit.Fields(t, state{}, map[string]string{
		"slab":     "state: deep-copied up to its high-water length; Reset clears it (closures released) and keeps the array",
		"free":     "state: free-list head, copied with the slab whose links it heads",
		"wheel":    "state: per-tick list heads and tails, copied by value",
		"occ":      "state: bucket occupancy bits, copied by value",
		"far":      "state: overflow heap of (tick, slot) pairs, deep-copied heap-ordered verbatim",
		"pending":  "state: count of linked + overflow events, copied",
		"beyond":   "stats: schedules that went to far; Reset zeroes, copied",
		"now":      "state: Reset zeroes, copied",
		"seq":      "state: Reset zeroes, copied",
		"executed": "stats: Reset zeroes, copied",
		"stopped":  "state: Reset/ClearStop clear, copied",
		"pollers":  "state: deep-copied (closures by reference) with their due ticks; Reset drops them",
		"pollNext": "state: recomputed/copied with the pollers' due ticks",
	})
}
