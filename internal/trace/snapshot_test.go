package trace

import (
	"fmt"
	"math/rand"
	"testing"

	"drftest/internal/audit"
)

// TestSnapshotFieldAudit pins the field sets of the Ring, the rolling
// log under it (and under core.EventLog) and the log's snapshot, so a
// new field cannot silently escape Snapshot/Restore/Reset (see package
// audit).
func TestSnapshotFieldAudit(t *testing.T) {
	audit.Fields(t, Ring{}, map[string]string{
		"log": "state: the rolling log; Reset empties, Snapshot/Restore cut",
	})
	audit.Fields(t, Log[Entry]{}, map[string]string{
		"capacity": "config: retained-window size, checked by Restore",
		"total":    "state: lifetime append count; Reset zeroes, Snapshot/Restore copy",
		"chunks":   "state: slot table; Snapshot shares the window's sealed chunks, Restore adopts a snapshot's",
		"cur":      "cursor: the partly filled chunk number total/chunkLen, always private; set by Append at a chunk boundary and by Restore, unused while total is on a boundary",
		"free":     "storage: released chunks awaiting reuse by private; holds no entries that are read",
	})
	audit.Fields(t, chunk[Entry]{}, map[string]string{
		"e":    "state: the entries; written only while the chunk is private (refs 1)",
		"refs": "ownership: holders — the log slot plus each snapshot referencing the chunk; a refilled snapshot releases its old chunks",
	})
	audit.Fields(t, RingSnapshot{}, map[string]string{
		"capacity": "cut: the source log's capacity, for Restore's mismatch check",
		"total":    "cut: append count",
		"sealed":   "cut: the retained window's full chunks, shared by pointer, never written again",
		"open":     "cut: private copy of the open chunk's filled prefix (< chunkLen entries)",
	})
}

// TestSnapshotRestoreRoundTrip is the Snapshot/Restore property test:
// across capacities, fill levels (empty, partial, exactly full,
// wrapped several times over) and post-restore reuse, a restored ring
// must report the same Len/Cap/Total and the same Entries() as the
// ring that was snapshotted — and appending after a restore must
// diverge from the donor ring exactly as two identical rings would.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	appendN := func(r *Ring, n int, tag string) {
		for i := 0; i < n; i++ {
			r.Append(uint64(rnd.Intn(1000)), "comp", tag, uint64(i))
		}
	}
	requireEqual := func(t *testing.T, want, got *Ring, when string) {
		t.Helper()
		if want.Len() != got.Len() || want.Cap() != got.Cap() || want.Total() != got.Total() {
			t.Fatalf("%s: len/cap/total = %d/%d/%d, want %d/%d/%d",
				when, got.Len(), got.Cap(), got.Total(), want.Len(), want.Cap(), want.Total())
		}
		we, ge := want.Entries(), got.Entries()
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("%s: entry %d = %+v, want %+v", when, i, ge[i], we[i])
			}
		}
	}

	for _, capacity := range []int{1, 2, 7, 64} {
		for _, fill := range []int{0, 1, capacity / 2, capacity, capacity + 1, 3*capacity + 2} {
			t.Run(fmt.Sprintf("cap%d_fill%d", capacity, fill), func(t *testing.T) {
				r := NewRing(capacity)
				appendN(r, fill, "pre")
				snap := r.Snapshot()

				// Restore onto a dirtied ring of the same capacity.
				other := NewRing(capacity)
				appendN(other, rnd.Intn(2*capacity+1), "dirt")
				other.Restore(snap)
				requireEqual(t, r, other, "after restore")

				// Post-restore reuse: both rings must evolve identically
				// when fed the same appends (replayed via a reseeded RNG).
				rnd = rand.New(rand.NewSource(17))
				appendN(r, capacity+3, "post")
				rnd = rand.New(rand.NewSource(17))
				appendN(other, capacity+3, "post")
				requireEqual(t, r, other, "after post-restore appends")

				// Reset after restore returns to empty, and the snapshot
				// can be restored again (it shares no storage).
				other.Reset()
				if other.Len() != 0 || other.Total() != 0 {
					t.Fatalf("after reset: len=%d total=%d, want 0/0", other.Len(), other.Total())
				}
				other.Restore(snap)
				if got, want := other.Total(), snap.total; got != want {
					t.Fatalf("after second restore: total=%d, want %d", got, want)
				}
			})
		}
	}

	// Disabled rings snapshot to nil, and Restore(nil) resets.
	var disabled *RingSnapshot = NewRing(0).Snapshot()
	if disabled != nil {
		t.Fatalf("disabled ring snapshot = %v, want nil", disabled)
	}
	r := NewRing(4)
	appendN(r, 3, "x")
	r.Restore(nil)
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("Restore(nil): len=%d total=%d, want 0/0", r.Len(), r.Total())
	}

	// Capacity mismatch is a programming error and must panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("Restore with mismatched capacity did not panic")
			}
		}()
		big := NewRing(8)
		big.Append(1, "c", "l", 0)
		NewRing(4).Restore(big.Snapshot())
	}()
}
