// Package directory implements the heterogeneous system directory
// shared by the GPU's L2, the CPU caches, and the DMA engine — the
// structure whose coverage the paper's §IV.C experiment measures.
//
// The directory is blocking: every operation claims a per-line TBE,
// moves the line to state B, optionally probes current holders, talks
// to memory, responds, and unblocks. GPU requests arrive through the
// viper Backend interface; CPU requests through the moesi caches; DMA
// requests only from application runs — which is why DMA transitions
// are uniquely activated by application-based testing (Fig. 10).
package directory

import (
	"sync"

	"drftest/internal/protocol"
)

// Directory states.
const (
	StateU  = iota // memory owns the line (uncached)
	StateG         // the GPU L2 may hold a copy
	StateCS        // CPU caches hold clean shared copies
	StateCM        // a CPU cache may own the line dirty (E/M/O granted)
	StateB         // blocked: a transaction owns the line
)

// States names the directory states.
var States = []string{"U", "G", "CS", "CM", "B"}

// Directory events.
const (
	EvGPURd       = iota // line fetch from GPU L2
	EvGPUWr              // write-through from GPU L2
	EvGPUAt              // atomic from GPU L2
	EvCPURd              // shared read from a CPU cache
	EvCPURdX             // exclusive read (store miss) from a CPU cache
	EvCPUUpg             // upgrade (store to a held copy) from a CPU cache
	EvCPUVic             // dirty write-back from a CPU cache
	EvDMARd              // DMA read
	EvDMAWr              // DMA write
	EvPrbAckClean        // probe acknowledged without data
	EvPrbAckData         // invalidation probe acknowledged with dirty data
	EvPrbAckOwned        // downgrade probe answered with data, owner keeps O
	EvMemData            // data (or atomic result) from memory
	EvMemWBAck           // write completion from memory
)

// Events names the directory events.
var Events = []string{
	"GPU_Rd", "GPU_Wr", "GPU_At", "CPU_Rd", "CPU_RdX", "CPU_Upg", "CPU_Vic",
	"DMA_Rd", "DMA_Wr", "PrbAckC", "PrbAckD", "PrbAckO", "MemData", "MemWBAck",
}

// NewSpec returns the directory transition table: one immutable spec
// per process, shared by every build (callers must not modify it).
func NewSpec() *protocol.Spec { return dirSpec() }

// dirSpec is the shared table's one build.
var dirSpec = sync.OnceValue(func() *protocol.Spec {
	s := protocol.NewSpec("Directory", States, Events)

	for _, ev := range []int{EvGPURd, EvGPUWr, EvCPURd, EvCPURdX, EvCPUUpg, EvDMARd, EvDMAWr} {
		s.Trans(StateU, ev, StateB, "start transaction")
		s.Trans(StateG, ev, StateB, "start transaction (probe GPU if foreign)")
		s.Trans(StateCS, ev, StateB, "start transaction (probe sharers)")
		s.Trans(StateCM, ev, StateB, "start transaction (probe dirty owner)")
		s.StallOn(StateB, ev)
	}

	// Atomics are never stalled: a busy or CPU-held line NACKs the
	// requester (the TCC retries — its AtomicND event), and a CPU-held
	// line additionally starts a cleanup transaction so the retry can
	// succeed.
	s.Trans(StateU, EvGPUAt, StateB, "atomic at memory")
	s.Trans(StateG, EvGPUAt, StateB, "atomic at memory")
	s.Trans(StateCS, EvGPUAt, StateB, "NACK + clean CPU copies")
	s.Trans(StateCM, EvGPUAt, StateB, "NACK + flush dirty owner")
	s.Trans(StateB, EvGPUAt, StateB, "NACK: line busy")

	// A write-back can race with a probe that already extracted the
	// dirty data; the directory then acknowledges the stale victim
	// without touching memory.
	s.Trans(StateU, EvCPUVic, StateU, "stale victim: ack, no write")
	s.Trans(StateG, EvCPUVic, StateG, "stale victim: ack, no write")
	s.Trans(StateCS, EvCPUVic, StateCS, "stale victim: ack, no write")
	s.Trans(StateCM, EvCPUVic, StateB, "write back dirty line")
	s.StallOn(StateB, EvCPUVic)

	s.Trans(StateB, EvPrbAckClean, StateB, "collect clean ack")
	s.Trans(StateB, EvPrbAckData, StateB, "collect dirty data (owner gone)")
	s.Trans(StateB, EvPrbAckOwned, StateB, "serve owner data (owner keeps O)")
	s.Trans(StateB, EvMemData, StateB, "memory data: respond")
	s.Trans(StateB, EvMemWBAck, StateB, "memory write done")

	return s
})
