package core

import (
	"fmt"
	"strings"

	"drftest/internal/mem"
	"drftest/internal/trace"
)

// LogKind distinguishes request issue records from response records.
type LogKind uint8

const (
	LogIssue LogKind = iota
	LogResp
)

func (k LogKind) String() string {
	if k == LogIssue {
		return "issue"
	}
	return "resp"
}

// LogEntry is one memory transaction in the tester's rolling event log
// (§III.D): enough identity to reconstruct the window of activity
// around a failure. Fields are packed small on purpose — the ring
// holds thousands of entries and is part of every tester's footprint.
type LogEntry struct {
	Tick      uint64
	Addr      mem.Addr
	EpisodeID uint64
	Value     uint32
	ThreadID  int32
	WFID      int32
	Op        mem.Op
	Kind      LogKind
	Acquire   bool
	Release   bool
}

func (e LogEntry) String() string {
	sem := ""
	if e.Acquire {
		sem = " acq"
	}
	if e.Release {
		sem += " rel"
	}
	return fmt.Sprintf("%8d %-5s %s%s addr=%#06x val=%-6d thr=%d wf=%d eps=%d",
		e.Tick, e.Kind.String(), e.Op, sem, uint64(e.Addr), e.Value, e.ThreadID, e.WFID, e.EpisodeID)
}

// EventLog is the tester's rolling log of recent transactions, the
// same chunked rolling log as the kernel's trace ring: Append, Reset
// and Total are the log's own.
type EventLog struct {
	trace.Log[LogEntry]
}

// NewEventLog creates a log holding the last capacity entries.
func NewEventLog(capacity int) *EventLog {
	l := &EventLog{}
	l.Init(capacity)
	return l
}

// Recent returns up to n most-recent entries, oldest first.
func (l *EventLog) Recent(n int) []LogEntry { return l.Last(n) }

// ForAddr returns up to n most-recent entries touching addr, oldest
// first — the "zoom into the window" view a protocol designer uses.
func (l *EventLog) ForAddr(addr mem.Addr, n int) []LogEntry {
	var out []LogEntry
	for _, e := range l.Last(l.Len()) {
		if e.Addr == addr {
			out = append(out, e)
		}
	}
	if n < len(out) {
		out = out[len(out)-n:]
	}
	return out
}

// Dump renders entries as a table.
func Dump(entries []LogEntry) string {
	var b strings.Builder
	for _, e := range entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
