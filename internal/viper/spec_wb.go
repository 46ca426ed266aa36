package viper

import (
	"sync"

	"drftest/internal/protocol"
)

// VIPER-WB is the write-back L2 protocol variant (§IV: "the tester can
// support other GPU protocols as well with minimal extensions"). The
// L2 is the GPU's global visibility point: write-throughs from the L1s
// are absorbed into (write-allocated) L2 lines and acknowledged at
// acceptance; dirty lines reach memory only on eviction. Atomics are
// performed at the L2 itself. The design is in the spirit of
// QuickRelease's throughput-oriented release consistency: releases
// drain as soon as the thread's writes reach the L2, not memory.
//
// The variant is GPU-only — a write-back GPU L2 under the shared
// directory would leave memory stale for CPU readers — so the PrbInv
// row is undefined, as are the directory ack events.

// TCC-WB states.
const (
	TCCWBStateI  = iota // invalid / not present
	TCCWBStateV         // valid clean
	TCCWBStateD         // valid dirty (newer than memory)
	TCCWBStateIV        // awaiting refill data
	TCCWBStateA         // awaiting refill data for an atomic
)

// TCCWBStates names the write-back L2 states.
var TCCWBStates = []string{"I", "V", "D", "IV", "A"}

// NewTCCWBSpec returns the write-back L2 transition table, one
// immutable spec per process shared by every build (callers must not
// modify it). It reuses the Table II event vocabulary; AtomicD/AtomicND
// (directory acks) and PrbInv (remote probes) are undefined in this
// GPU-only variant.
func NewTCCWBSpec() *protocol.Spec { return tccWBSpec() }

// tccWBSpec is the shared table's one build.
var tccWBSpec = sync.OnceValue(func() *protocol.Spec {
	s := protocol.NewSpec("GPU-L2WB", TCCWBStates, TCCEvents)

	s.Trans(TCCWBStateI, TCCRdBlk, TCCWBStateIV, "miss: fetch from memory")
	s.Trans(TCCWBStateV, TCCRdBlk, TCCWBStateV, "hit: send TCC_Ack")
	s.Trans(TCCWBStateD, TCCRdBlk, TCCWBStateD, "dirty hit: send TCC_Ack")
	s.StallOn(TCCWBStateIV, TCCRdBlk)
	s.StallOn(TCCWBStateA, TCCRdBlk)

	s.Trans(TCCWBStateI, TCCWrVicBlk, TCCWBStateIV, "write-allocate: fetch, buffer bytes, ack now")
	s.Trans(TCCWBStateV, TCCWrVicBlk, TCCWBStateD, "merge bytes, ack now")
	s.Trans(TCCWBStateD, TCCWrVicBlk, TCCWBStateD, "merge bytes, ack now")
	s.StallOn(TCCWBStateIV, TCCWrVicBlk)
	s.StallOn(TCCWBStateA, TCCWrVicBlk)

	s.Trans(TCCWBStateI, TCCAtomic, TCCWBStateA, "miss: fetch for atomic")
	s.Trans(TCCWBStateV, TCCAtomic, TCCWBStateD, "perform at L2, TCC_Ack old value")
	s.Trans(TCCWBStateD, TCCAtomic, TCCWBStateD, "perform at L2, TCC_Ack old value")
	s.StallOn(TCCWBStateIV, TCCAtomic)
	s.StallOn(TCCWBStateA, TCCAtomic)

	s.Trans(TCCWBStateIV, TCCData, TCCWBStateV, "fill (+merge buffered writes -> D)")
	s.Trans(TCCWBStateA, TCCData, TCCWBStateD, "fill, perform atomic, TCC_Ack old value")

	s.Trans(TCCWBStateV, TCCL2Repl, TCCWBStateI, "evict clean")
	s.Trans(TCCWBStateD, TCCL2Repl, TCCWBStateI, "evict dirty: write back to memory")

	s.Trans(TCCWBStateI, TCCWBAck, TCCWBStateI, "eviction write-back complete")
	s.Trans(TCCWBStateV, TCCWBAck, TCCWBStateV, "eviction write-back complete (line refilled)")
	s.Trans(TCCWBStateD, TCCWBAck, TCCWBStateD, "eviction write-back complete (line refilled)")
	s.Trans(TCCWBStateIV, TCCWBAck, TCCWBStateIV, "eviction write-back complete (refill in flight)")
	s.Trans(TCCWBStateA, TCCWBAck, TCCWBStateA, "eviction write-back complete (refill in flight)")

	return s
})
