package viper

import (
	"testing"

	"drftest/internal/mem"
)

// The tests below pin the L1 corner transitions the paper names as the
// hard-to-reach ones ("store hits on a pending atomic operation",
// replacement of atomic reservations) with exact scenarios.

// TestStoreStallsOnPendingAtomic: [A, StoreThrough] — a store to a
// line mid-atomic stalls and completes after the atomic.
func TestStoreStallsOnPendingAtomic(t *testing.T) {
	r := newRig(t, smallCfg())
	at := r.issue(0, mem.OpAtomic, 0xA00, 1, 0)
	st := r.issue(0, mem.OpStore, 0xA04, 9, 1) // same line, other word
	r.run()
	if r.resp(t, at).Data != 0 {
		t.Fatal("atomic old value wrong")
	}
	r.resp(t, st)
	if got := r.sys.Mem.Store().ReadWord(0xA04); got != 9 {
		t.Fatalf("stalled store lost: memory holds %d", got)
	}
	m := r.col.Matrix("GPU-L1")
	if m.Hits[TCPStateA][TCPStoreThrough] == 0 {
		t.Fatal("[A,StoreThrough] stall not recorded")
	}
}

// TestWriteAckArrivesDuringAtomic: [A, TCC_AckWB] — a write-through
// acked while a later atomic holds the same line in A.
func TestWriteAckArrivesDuringAtomic(t *testing.T) {
	r := newRig(t, smallCfg())
	st := r.issue(0, mem.OpStore, 0xB00, 5, 0)
	at := r.issue(0, mem.OpAtomic, 0xB04, 1, 1) // same line: A before the WB ack returns
	r.run()
	r.resp(t, st)
	r.resp(t, at)
	if r.col.Matrix("GPU-L1").Hits[TCPStateA][TCPTCCAckWB] == 0 {
		t.Fatal("[A,TCC_AckWB] not recorded")
	}
}

// TestAtomicReservationSurvivesReplacement: [A, Repl] — displacing an
// atomic's reservation entry must not lose the transaction.
func TestAtomicReservationSurvivesReplacement(t *testing.T) {
	r := newRig(t, smallCfg()) // 256B 2-way L1: 2 sets, stride 128
	// The loads' memory reads queue ahead of the atomic at the FIFO
	// memory controller, so their fills install — and displace the
	// atomic's reservation — while the atomic is still in flight.
	l1 := r.issue(0, mem.OpLoad, 0x080, 0, 1)
	l2 := r.issue(0, mem.OpLoad, 0x100, 0, 2)
	at := r.issue(0, mem.OpAtomic, 0x000, 3, 0)
	r.run()
	if r.resp(t, at).Data != 0 {
		t.Fatal("displaced atomic returned wrong old value")
	}
	r.resp(t, l1)
	r.resp(t, l2)
	if got := r.sys.Mem.Store().ReadWord(0x000); got != 3 {
		t.Fatalf("displaced atomic never performed: memory holds %d", got)
	}
	if r.col.Matrix("GPU-L1").Hits[TCPStateA][TCPRepl] == 0 {
		t.Fatal("[A,Repl] not recorded")
	}
}

// TestAcquireKeepsPendingAtomic: [A, Evict] — a flash invalidation
// while another thread's atomic is in flight keeps the reservation.
func TestAcquireKeepsPendingAtomic(t *testing.T) {
	r := newRig(t, smallCfg())
	// The acquire queues ahead of the atomic at the FIFO memory, so its
	// flash invalidation runs while the atomic's reservation is in A.
	r.id++
	acq := &mem.Request{ID: r.id, Op: mem.OpAtomic, Addr: 0xD00, Operand: 1, Acquire: true, ThreadID: 1}
	r.sys.Seqs[0].Issue(acq)
	at := r.issue(0, mem.OpAtomic, 0xC00, 2, 0)
	r.run()
	if r.resp(t, at).Data != 0 {
		t.Fatal("atomic corrupted by concurrent flash invalidation")
	}
	if got := r.sys.Mem.Store().ReadWord(0xC00); got != 2 {
		t.Fatalf("atomic lost: memory holds %d", got)
	}
	if r.col.Matrix("GPU-L1").Hits[TCPStateA][TCPEvict] == 0 {
		t.Fatal("[A,Evict] keep-pending not recorded")
	}
}

// TestCoalescedLoads: two loads to one line produce one RdBlk and both
// complete from the single fill.
func TestCoalescedLoads(t *testing.T) {
	r := newRig(t, smallCfg())
	r.sys.Mem.Store().WriteWord(0xE00, 11)
	r.sys.Mem.Store().WriteWord(0xE04, 22)
	a := r.issue(0, mem.OpLoad, 0xE00, 0, 0)
	b := r.issue(0, mem.OpLoad, 0xE04, 0, 1)
	r.run()
	if r.resp(t, a).Data != 11 || r.resp(t, b).Data != 22 {
		t.Fatal("coalesced loads returned wrong values")
	}
	if got := r.sys.TCCs[0].Stats()["rdblk"]; got != 1 {
		t.Fatalf("expected 1 RdBlk for coalesced loads, TCC saw %d", got)
	}
}

// TestAtomicRecycledBehindLoadMiss: an atomic arriving while the line
// has coalesced load misses is recycled (resource hazard) and still
// completes correctly after the fill.
func TestAtomicRecycledBehindLoadMiss(t *testing.T) {
	r := newRig(t, smallCfg())
	ld := r.issue(0, mem.OpLoad, 0xF00, 0, 0)
	at := r.issue(0, mem.OpAtomic, 0xF04, 7, 1) // same line while fill pending
	r.run()
	r.resp(t, ld)
	if r.resp(t, at).Data != 0 {
		t.Fatal("recycled atomic returned wrong old value")
	}
	if got := r.sys.Mem.Store().ReadWord(0xF04); got != 7 {
		t.Fatalf("recycled atomic never performed: %d", got)
	}
}
