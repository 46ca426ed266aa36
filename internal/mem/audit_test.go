package mem

import (
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the field sets of the snapshotted
// structs so a new field cannot silently escape the COW
// Snapshot/Restore/Reset machinery (see package audit).
func TestSnapshotFieldAudit(t *testing.T) {
	audit.Fields(t, Store{}, map[string]string{
		"lastPN":  "cache: resolution cache, invalidated by Reset/Restore",
		"lastPE":  "cache: resolution cache, invalidated by Reset/Restore",
		"dir":     "state: chunked page directory; entries captured per touched page",
		"far":     "state: sparse overflow pages; captured per touched page",
		"pages":   "state: live-entry list, rebuilt by Restore, cleared by Reset",
		"touched": "state: live-page count, recomputed by Reset/Restore",
		"free":    "pool: recycled blocks; once snapped only private ones (born or copied at the current epoch) are added, the rest may be shared",
		"epoch":   "snapshot bookkeeping: COW write epoch",
		"snap":    "snapshot bookkeeping: armed snapshot, Reset disarms",
		"snapped": "snapshot bookkeeping: ever-snapshotted latch gating the free list",
	})
	audit.Fields(t, pageEntry{}, map[string]string{
		"blocks": "state: the page's block table (kept across drops, slots cleared); each 256-byte block is COW-copied on its first armed write per epoch",
		"epoch":  "snapshot bookkeeping: the epoch priv describes",
		"priv":   "snapshot bookkeeping: blocks born or copied at epoch",
		"pn":     "state: page number, fixed for the entry's lifetime",
	})
}

// TestLinePoolFieldAudit pins the field sets of the payload slab pool
// (the zero-copy data plane's allocator). Line matters doubly: its
// handles are held by identity across the whole data plane (messages,
// wt buffers, controller queues), so a field missed by Restore would
// desynchronize every holder at once.
func TestLinePoolFieldAudit(t *testing.T) {
	audit.Fields(t, Line{}, map[string]string{
		"Data":   "state: contents copied into/out of lineSave (the buffer itself is retained by identity)",
		"mask":   "state: copied via lineSave when masked; detached (masked=false) on recycle, buffer retained",
		"masked": "state: copied via lineSave",
		"refs":   "state: copied via lineSave; Reset force-zeroes it",
		"epoch":  "state: copied via lineSave (use-after-release epoch checks replay identically)",
		"pool":   "config: owning pool back-pointer, fixed at allocation",
		"idx":    "config: registry slot, fixed at allocation",
	})
	audit.Fields(t, LinePool{}, map[string]string{
		"lineSize":  "config: fixed at construction",
		"lineChunk": "scratch: unused tail of the chunk new Line headers are carved from, excluded — a cut restores lines by identity, and a carved line is zeroed, as a fresh one was",
		"dataChunk": "scratch: unused tail of the chunk new payloads are carved from, excluded like lineChunk",
		"maskChunk": "scratch: unused tail of the chunk new masks are carved from, excluded like lineChunk",
		"free":      "state: free-stack order via the snapshot's free indices (Get-order replay depends on it)",
		"all":       "config: birth-order registry; Restore writes into the SAME Line objects, extras are parked",
		"track":     "config: armed by EnableTracking, survives Reset/Restore",
		"gets":      "stat: monotone counter, excluded from snapshots (Stats is diagnostic only)",
		"allocs":    "stat: monotone counter, excluded from snapshots (alloc pins read deltas within one phase)",
	})
	audit.Fields(t, lineSave{}, map[string]string{
		"off":     "save: Line.Data's offset in the snapshot's byte arena",
		"n":       "save: len(Line.Data); the bytes are a deep copy in the arena",
		"maskOff": "save: the attached mask's offset in the snapshot's mask arena (masked lines only)",
		"maskLen": "save: len of the attached mask; deep copy in the arena",
		"masked":  "save: value copy",
		"refs":    "save: value copy",
		"epoch":   "save: value copy",
	})
}
