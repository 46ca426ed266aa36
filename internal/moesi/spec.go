// Package moesi implements the CPU side of the heterogeneous system:
// per-core write-back caches speaking a MOESI-style invalidation
// protocol against the shared system directory, standing in for gem5's
// MOESI_AMD_Base corepair protocol.
//
// The CPU caches exist for the paper's §IV.C experiment: the CPU
// random tester drives them to activate the directory transitions the
// GPU tester cannot reach (probes, dirty write-backs, sharer
// invalidations), so the union of the two testers covers far more of
// the directory than either alone.
package moesi

import (
	"sync"

	"drftest/internal/protocol"
)

// CPU cache states.
const (
	StateI = iota // invalid
	StateS        // shared clean
	StateE        // exclusive clean
	StateM        // modified (sole dirty owner)
	StateO        // owned (dirty, shared with S copies)
)

// States names the CPU cache states.
var States = []string{"I", "S", "E", "M", "O"}

// CPU cache events.
const (
	EvLoad   = iota // core load
	EvStore         // core store
	EvDataS         // shared fill from directory
	EvDataE         // exclusive clean fill
	EvDataM         // fill with write permission (store miss/upgrade)
	EvRepl          // replacement
	EvPrbInv        // directory probe: invalidate
	EvPrbShr        // directory probe: downgrade/share
	EvWBAck         // write-back acknowledgement
)

// Events names the CPU cache events.
var Events = []string{"Load", "Store", "DataS", "DataE", "DataM", "Repl", "PrbInv", "PrbShr", "WBAck"}

// NewCPUSpec returns the CPU cache transition table: one immutable
// spec per process, shared by every build (callers must not modify it).
func NewCPUSpec() *protocol.Spec { return cpuSpec() }

// cpuSpec is the shared table's one build.
var cpuSpec = sync.OnceValue(func() *protocol.Spec {
	s := protocol.NewSpec("CPU-L1", States, Events)

	s.Trans(StateI, EvLoad, StateI, "miss: send CPURd")
	s.Trans(StateS, EvLoad, StateS, "hit")
	s.Trans(StateE, EvLoad, StateE, "hit")
	s.Trans(StateM, EvLoad, StateM, "hit")
	s.Trans(StateO, EvLoad, StateO, "hit")

	s.Trans(StateI, EvStore, StateI, "miss: send CPURdX")
	s.Trans(StateS, EvStore, StateS, "upgrade: send CPURdX")
	s.Trans(StateE, EvStore, StateM, "silent upgrade")
	s.Trans(StateM, EvStore, StateM, "hit")
	s.Trans(StateO, EvStore, StateO, "upgrade: send CPURdX")

	s.Trans(StateI, EvDataS, StateS, "fill shared")
	s.Trans(StateI, EvDataE, StateE, "fill exclusive")
	s.Trans(StateI, EvDataM, StateM, "fill with write permission")
	s.Trans(StateS, EvDataM, StateM, "upgrade complete")
	s.Trans(StateO, EvDataM, StateM, "upgrade complete")

	s.Trans(StateS, EvRepl, StateI, "drop clean")
	s.Trans(StateE, EvRepl, StateI, "drop clean")
	s.Trans(StateM, EvRepl, StateI, "write back dirty (CPUVic)")
	s.Trans(StateO, EvRepl, StateI, "write back dirty (CPUVic)")

	s.Trans(StateI, EvPrbInv, StateI, "ack clean (silently replaced)")
	s.Trans(StateS, EvPrbInv, StateI, "invalidate, ack clean")
	s.Trans(StateE, EvPrbInv, StateI, "invalidate, ack clean")
	s.Trans(StateM, EvPrbInv, StateI, "invalidate, ack dirty data")
	s.Trans(StateO, EvPrbInv, StateI, "invalidate, ack dirty data")

	s.Trans(StateI, EvPrbShr, StateI, "ack clean (silently replaced)")
	s.Trans(StateS, EvPrbShr, StateS, "ack clean")
	s.Trans(StateE, EvPrbShr, StateS, "downgrade, ack clean")
	s.Trans(StateM, EvPrbShr, StateO, "downgrade, ack dirty data")
	s.Trans(StateO, EvPrbShr, StateO, "ack dirty data")

	s.Trans(StateI, EvWBAck, StateI, "write-back complete")

	return s
})
