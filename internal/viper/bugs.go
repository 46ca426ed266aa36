package viper

import (
	"fmt"
	"strings"
)

// BugSet selects deliberately injected protocol-implementation bugs.
// Each reproduces one of the bug classes discussed in the paper's case
// study (§V): the implementation deviates from the transition tables in
// a way only a checking workload can observe.
//
// The zero value is a correct protocol.
type BugSet struct {
	// LostWriteRace makes the TCC mis-serialize two false-sharing
	// write-throughs racing on one cache line: while an earlier write
	// to the line is still outstanding to memory, a second write skips
	// the merge into the TCC's cached copy, leaving the L2 line stale.
	// This is the paper's Table V bug: a read–write inconsistency on
	// one variable caused by two writes to *different* variables in the
	// same line.
	LostWriteRace bool

	// NonAtomicRMW makes the TCC "optimize" atomics that hit in its
	// cache: instead of forwarding to the global ordering point it
	// reads the old value, answers immediately, and performs the write
	// NonAtomicWindow ticks later without serializing the line. Two
	// concurrent atomics can then observe the same old value, which the
	// tester's monotonicity check flags as duplicate returns.
	NonAtomicRMW bool
	// NonAtomicWindow is the read-to-write gap of the buggy fast path
	// (default 50 ticks when NonAtomicRMW is set).
	NonAtomicWindow uint64

	// DropWBAckEvery makes the TCC silently drop every Nth write
	// completion ack (TCC_AckWB). The issuing thread's store-release
	// then never drains, which the tester's forward-progress checker
	// reports as a deadlock. Zero disables the bug.
	DropWBAckEvery uint64

	// StaleAcquire makes the L1 sequencer skip the flash invalidation
	// on load-acquire, so an episode can read data cached before its
	// acquire — a consistency-model bug rather than a transition bug.
	StaleAcquire bool

	// AckDropsOverlay reinstates the L1 bug the tester found in this
	// model (DESIGN §15.1): on a write-through's ack the TCP deletes the
	// line's drained overlay buffer even while a load miss waits on the
	// line, so a fill the ack overtook installs bytes older than the
	// CU's own store. It is a real bug's revert, not a §V case-study
	// bug: only a jittered response link exposes it, so it stays out of
	// the Bugs registry (and out of -bug, figures and bughunt).
	AckDropsOverlay bool `json:",omitempty"`
}

func (b BugSet) nonAtomicWindow() uint64 {
	if b.NonAtomicWindow == 0 {
		return 50
	}
	return b.NonAtomicWindow
}

// shares reports whether b and o inject a bug in common.
func (b BugSet) shares(o BugSet) bool {
	return b.LostWriteRace && o.LostWriteRace || b.NonAtomicRMW && o.NonAtomicRMW ||
		b.DropWBAckEvery != 0 && o.DropWBAckEvery != 0 || b.StaleAcquire && o.StaleAcquire ||
		b.AckDropsOverlay && o.AckDropsOverlay
}

// Bug is one injectable bug of the paper's case study (§V).
type Bug struct {
	Name string // its -bug flag value
	Doc  string // what the injected implementation gets wrong
	Set  BugSet
	// WriteBack says whether the write-back L2 (Config.WriteBackL2) hosts
	// the bug; every bug is hosted under write-through. A bug the
	// write-back L2 has no path for would never fire there, so a run
	// would report PASS as if the tester had missed it: Config.Validate
	// refuses the pair instead.
	WriteBack bool
}

// Bugs is the one bug-name registry, in the case study's order.
// lostwrite merges a write behind an outstanding write-through and
// dropack drops a write-through's completion ack from memory; the
// write-back L2 sends no write-through to memory and acks a write on
// acceptance, so neither has a form there.
var Bugs = []Bug{
	{"lostwrite", "lost write on false-sharing race at L2", BugSet{LostWriteRace: true}, false},
	{"nonatomic", "non-atomic read-modify-write at L2", BugSet{NonAtomicRMW: true}, true},
	{"dropack", "dropped write-completion ack", BugSet{DropWBAckEvery: 20}, false},
	{"staleacquire", "skipped flash-invalidate on acquire", BugSet{StaleAcquire: true}, true},
}

// BugNames returns the names ParseBug accepts.
func BugNames() []string {
	var names []string
	for _, b := range Bugs {
		names = append(names, b.Name)
	}
	return names
}

// ParseBug returns the bug set that injects the named bug.
func ParseBug(name string) (BugSet, error) {
	for _, b := range Bugs {
		if b.Name == name {
			return b.Set, nil
		}
	}
	return BugSet{}, fmt.Errorf("unknown bug %q (want %s)", name, strings.Join(BugNames(), "|"))
}
