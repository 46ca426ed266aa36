// Package viper implements the GPU VIPER cache coherence protocol the
// paper tests: per-CU write-through L1 caches (TCP) beneath a shared L2
// (TCC), with release-consistency synchronization — load-acquire flash-
// invalidates the L1, store-release drains the thread's write-throughs,
// and atomics are performed at the global ordering point.
//
// The protocol is expressed as explicit (state × event) transition
// tables (see package protocol), using exactly the event vocabulary of
// the paper's Tables I and II and the state vocabulary of its Fig. 4:
// I (invalid), V (valid), IV (awaiting fill), A (atomic in flight).
package viper

import (
	"sync"

	"drftest/internal/protocol"
)

// TCP (GPU L1) states.
const (
	TCPStateI = iota // invalid / not present
	TCPStateV        // valid clean copy
	TCPStateA        // atomic in flight for this line
)

// TCPStates names the L1 states.
var TCPStates = []string{"I", "V", "A"}

// TCP (GPU L1) events — the paper's Table I.
const (
	TCPLoad         = iota // data read request from GPU
	TCPStoreThrough        // data write request from GPU
	TCPAtomic              // data atomic request from GPU
	TCPTCCAck              // data response from GPU L2
	TCPTCCAckWB            // write completion ack from GPU L2
	TCPEvict               // flash invalidation request from GPU
	TCPRepl                // cache replacement request
)

// TCPEvents names the L1 events (Table I).
var TCPEvents = []string{"Load", "StoreThrough", "Atomic", "TCC_Ack", "TCC_AckWB", "Evict", "Repl"}

// TCPEventDescriptions reproduces the paper's Table I.
var TCPEventDescriptions = map[string]string{
	"Load":         "Data read request from GPU",
	"StoreThrough": "Data write request from GPU",
	"Atomic":       "Data atomic request from GPU",
	"TCC_Ack":      "Data response from GPU L2",
	"TCC_AckWB":    "Write completion ack from GPU L2",
	"Evict":        "Flash invalidation request from GPU",
	"Repl":         "Cache replacement request",
}

// NewTCPSpec returns the GPU L1 transition table: one immutable spec
// per process, shared by every build (callers must not modify it).
func NewTCPSpec() *protocol.Spec { return tcpSpec() }

// tcpSpec is the shared table's one build.
var tcpSpec = sync.OnceValue(func() *protocol.Spec {
	s := protocol.NewSpec("GPU-L1", TCPStates, TCPEvents)

	s.Trans(TCPStateI, TCPLoad, TCPStateI, "miss: send RdBlk")
	s.Trans(TCPStateV, TCPLoad, TCPStateV, "hit")
	s.StallOn(TCPStateA, TCPLoad)

	s.Trans(TCPStateI, TCPStoreThrough, TCPStateI, "write-through, no allocate")
	s.Trans(TCPStateV, TCPStoreThrough, TCPStateV, "write bytes + write-through")
	s.StallOn(TCPStateA, TCPStoreThrough)

	s.Trans(TCPStateI, TCPAtomic, TCPStateA, "send Atomic")
	s.Trans(TCPStateV, TCPAtomic, TCPStateA, "invalidate copy, send Atomic")
	s.StallOn(TCPStateA, TCPAtomic)

	s.Trans(TCPStateI, TCPTCCAck, TCPStateV, "fill")
	// TCC_Ack in V is undefined: a fill can only be outstanding for an
	// invalid line, and atomic responses arrive in A.
	s.Trans(TCPStateA, TCPTCCAck, TCPStateI, "atomic done, return old value")

	s.Trans(TCPStateI, TCPTCCAckWB, TCPStateI, "write complete")
	s.Trans(TCPStateV, TCPTCCAckWB, TCPStateV, "write complete")
	s.Trans(TCPStateA, TCPTCCAckWB, TCPStateA, "write complete")

	// Evict visits only valid entries, so Evict-in-I is undefined.
	s.Trans(TCPStateV, TCPEvict, TCPStateI, "flash invalidate")
	s.Trans(TCPStateA, TCPEvict, TCPStateA, "keep: atomic pending, no local data")

	// Repl selects only valid victims, so Repl-in-I is undefined.
	s.Trans(TCPStateV, TCPRepl, TCPStateI, "evict clean (write-through)")
	s.Trans(TCPStateA, TCPRepl, TCPStateA, "free entry, TBE holds transaction")

	return s
})

// TCC (GPU L2) states.
const (
	TCCStateI  = iota // invalid / not present
	TCCStateV         // valid
	TCCStateIV        // awaiting refill data
	TCCStateA         // atomic access in flight, awaiting completion ack
)

// TCCStates names the L2 states.
var TCCStates = []string{"I", "V", "IV", "A"}

// TCC (GPU L2) events — the paper's Table II.
const (
	TCCRdBlk    = iota // data read request from GPU L1
	TCCWrVicBlk        // data write request from GPU L1
	TCCAtomic          // data atomic request from GPU L1
	TCCAtomicD         // atomic completion ack
	TCCAtomicND        // atomic incompletion ack (retry)
	TCCData            // data response from memory
	TCCL2Repl          // cache replacement
	TCCPrbInv          // invalidation request from other L2
	TCCWBAck           // write completion ack from memory
)

// TCCEvents names the L2 events (Table II).
var TCCEvents = []string{"RdBlk", "WrVicBlk", "Atomic", "AtomicD", "AtomicND", "Data", "L2_Repl", "PrbInv", "WBAck"}

// TCCEventDescriptions reproduces the paper's Table II.
var TCCEventDescriptions = map[string]string{
	"RdBlk":    "Data read request from GPU L1",
	"WrVicBlk": "Data write request from GPU L1",
	"Atomic":   "Data atomic request from GPU L1",
	"AtomicD":  "Atomic completion ACK",
	"AtomicND": "Atomic incompletion ACK",
	"Data":     "Data response from memory",
	"L2_Repl":  "Cache replacement",
	"PrbInv":   "Invalidation request from other L2",
	"WBAck":    "Write completion ACK from memory",
}

// NewTCCSpec returns the GPU L2 transition table: one immutable spec
// per process, shared by every build (callers must not modify it).
func NewTCCSpec() *protocol.Spec { return tccSpec() }

// tccSpec is the shared table's one build.
var tccSpec = sync.OnceValue(func() *protocol.Spec {
	s := protocol.NewSpec("GPU-L2", TCCStates, TCCEvents)

	s.Trans(TCCStateI, TCCRdBlk, TCCStateIV, "miss: fetch from memory")
	s.Trans(TCCStateV, TCCRdBlk, TCCStateV, "hit: send TCC_Ack")
	s.StallOn(TCCStateIV, TCCRdBlk)
	s.StallOn(TCCStateA, TCCRdBlk)

	s.Trans(TCCStateI, TCCWrVicBlk, TCCStateI, "forward write, no allocate")
	s.Trans(TCCStateV, TCCWrVicBlk, TCCStateV, "merge bytes + forward write")
	s.StallOn(TCCStateIV, TCCWrVicBlk)
	s.StallOn(TCCStateA, TCCWrVicBlk)

	s.Trans(TCCStateI, TCCAtomic, TCCStateA, "send atomic to ordering point")
	s.Trans(TCCStateV, TCCAtomic, TCCStateA, "invalidate copy, send atomic")
	s.StallOn(TCCStateIV, TCCAtomic)
	s.StallOn(TCCStateA, TCCAtomic)

	s.Trans(TCCStateA, TCCAtomicD, TCCStateI, "atomic done, TCC_Ack old value")
	s.Trans(TCCStateA, TCCAtomicND, TCCStateA, "nacked: retry atomic")

	s.Trans(TCCStateIV, TCCData, TCCStateV, "fill, TCC_Ack requester")

	s.Trans(TCCStateV, TCCL2Repl, TCCStateI, "evict clean (write-through)")

	s.Trans(TCCStateI, TCCPrbInv, TCCStateI, "ack probe")
	s.Trans(TCCStateV, TCCPrbInv, TCCStateI, "invalidate + ack probe")
	// Probes must never wait on lines in transient states, or they
	// deadlock against requests queued behind the probing transaction
	// at the blocking directory. A line mid-fill holds no data yet: the
	// probe is acked immediately and the pending fill is marked
	// non-caching (it serves its waiting loads but installs nothing).
	// A line mid-atomic likewise holds no data.
	s.Trans(TCCStateIV, TCCPrbInv, TCCStateIV, "ack probe: mark fill non-caching")
	s.Trans(TCCStateA, TCCPrbInv, TCCStateA, "ack probe: no data cached")

	s.Trans(TCCStateI, TCCWBAck, TCCStateI, "forward TCC_AckWB")
	s.Trans(TCCStateV, TCCWBAck, TCCStateV, "forward TCC_AckWB")
	s.Trans(TCCStateIV, TCCWBAck, TCCStateIV, "forward TCC_AckWB")
	s.Trans(TCCStateA, TCCWBAck, TCCStateA, "forward TCC_AckWB")

	return s
})
