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
}

func (b BugSet) nonAtomicWindow() uint64 {
	if b.NonAtomicWindow == 0 {
		return 50
	}
	return b.NonAtomicWindow
}

// Bug is one injectable bug of the paper's case study (§V).
type Bug struct {
	Name string // its -bug flag value
	Doc  string // what the injected implementation gets wrong
	Set  BugSet
}

// Bugs is the one bug-name registry, in the case study's order.
var Bugs = []Bug{
	{"lostwrite", "lost write on false-sharing race at L2", BugSet{LostWriteRace: true}},
	{"nonatomic", "non-atomic read-modify-write at L2", BugSet{NonAtomicRMW: true}},
	{"dropack", "dropped write-completion ack", BugSet{DropWBAckEvery: 20}},
	{"staleacquire", "skipped flash-invalidate on acquire", BugSet{StaleAcquire: true}},
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
