package core

import (
	"fmt"
	"strings"

	"drftest/internal/mem"
)

// FailureKind classifies a detected bug.
type FailureKind uint8

const (
	// FailValueMismatch is a read–write inconsistency: a load observed
	// a value other than the one the DRF reference memory mandates.
	FailValueMismatch FailureKind = iota
	// FailDuplicateAtomic is an atomicity violation: two atomics on a
	// sync variable returned the same old value.
	FailDuplicateAtomic
	// FailBadAtomicValue is an atomic old value outside the legal
	// arithmetic progression.
	FailBadAtomicValue
	// FailDeadlock is a forward-progress violation: a request exceeded
	// the deadlock threshold without a response.
	FailDeadlock
	// FailProtocolFault is an undefined protocol transition.
	FailProtocolFault
	// FailFinalAudit is an end-of-run divergence between reference
	// memory and the simulated memory/L2 contents.
	FailFinalAudit
)

// Failure-kind names, and the trace labels built from them.
var (
	failNames = [...]string{
		FailValueMismatch: "value-mismatch", FailDuplicateAtomic: "duplicate-atomic",
		FailBadAtomicValue: "bad-atomic-value", FailDeadlock: "deadlock",
		FailProtocolFault: "protocol-fault", FailFinalAudit: "final-audit",
	}
	failLabels = prefixed("fail ", failNames[:])
)

func (k FailureKind) String() string {
	if int(k) < len(failNames) {
		return failNames[k]
	}
	return fmt.Sprintf("FailureKind(%d)", uint8(k))
}

// Failure is one detected bug with the debugging context the paper's
// §III.D / Table V describe.
type Failure struct {
	Kind    FailureKind
	Tick    uint64
	Addr    mem.Addr
	Message string

	// Expected/Got apply to value and atomic failures.
	Expected uint32
	Got      uint32

	// LastReader/LastWriter reproduce Table V for value mismatches;
	// for duplicate atomics they are the two conflicting operations.
	LastReader *AccessRecord
	LastWriter *AccessRecord

	// Window holds the recent transactions touching Addr.
	Window []LogEntry
}

func (f *Failure) Error() string { return f.Message }

// TableV renders the failure in the two-column layout of the paper's
// Table V.
func (f *Failure) TableV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s at tick %d (addr %#x)\n", f.Kind, f.Tick, uint64(f.Addr))
	fmt.Fprintf(&b, "%s\n", f.Message)
	if f.LastReader != nil && f.LastWriter != nil {
		row := func(label string, rv, wv any) {
			fmt.Fprintf(&b, "  %-20s %-14v %-14v\n", label, rv, wv)
		}
		fmt.Fprintf(&b, "  %-20s %-14s %-14s\n", "", "Last Reader", "Last Writer")
		row("Thread ID", f.LastReader.ThreadID, f.LastWriter.ThreadID)
		row("Thread group ID", f.LastReader.WFID, f.LastWriter.WFID)
		row("Episode ID", f.LastReader.EpisodeID, f.LastWriter.EpisodeID)
		row("Address", fmt.Sprintf("%#x", uint64(f.LastReader.Addr)), fmt.Sprintf("%#x", uint64(f.LastWriter.Addr)))
		row("Cycle", f.LastReader.Cycle, f.LastWriter.Cycle)
		row("Read/Written Value", f.LastReader.Value, f.LastWriter.Value)
	}
	if len(f.Window) > 0 {
		fmt.Fprintf(&b, "  recent transactions on %#x:\n", uint64(f.Addr))
		for _, e := range f.Window {
			fmt.Fprintf(&b, "    %s\n", e)
		}
	}
	return b.String()
}
