// Package logtest is the model-based test driver for the rolling log
// (trace.Log) shared by trace.Ring and core.EventLog: each of the two
// packages adapts its log to Log and runs the same byte-coded programs
// of appends, resets, snapshots and restores against a plain-slice
// model, from a property test and from a fuzz target.
package logtest

import (
	"slices"
	"testing"
)

// Log is the surface the driver exercises. Entries are identified by
// the id they were appended with.
type Log interface {
	Append(id uint64)
	// IDs returns the retained entries' ids, oldest first.
	IDs() []uint64
	Total() uint64
	Reset()
	// Snapshot captures the log, refilling dead — a snapshot of a log
	// of the same kind and capacity that the driver will never restore
	// again — or into fresh storage when dead is nil.
	Snapshot(dead any) any
	Restore(snap any)
}

// model is the reference: every id ever appended since the last
// reset; the log retains its last capacity entries.
type model []uint64

func (m model) retained(capacity int) []uint64 {
	if len(m) > capacity {
		return m[len(m)-capacity:]
	}
	return m
}

// slots is how many snapshots a program keeps alive at once.
const slots = 4

// Run interprets prog over two logs of the given capacity built by
// newLog, checking both against the model after every step. One byte
// is one step: bit 3 picks the log, the top four bits are the
// argument, and the low three bits the operation —
//
//	0, 1, 2  append arg+1, 16(arg+1), 67(arg+1) entries (the last wraps
//	         any tested capacity several times past shared chunks)
//	3, 4     snapshot into slot arg mod 4, fresh (3) or refilling the
//	         slot's previous, now dead, snapshot (4)
//	5, 6     restore slot arg mod 4 — taken from either log, in any
//	         order relative to the other slots
//	7        reset
//
// At the end every live slot is restored once more onto each log and
// must still read back as the window it captured.
func Run(t testing.TB, capacity int, newLog func(capacity int) Log, prog []byte) {
	t.Helper()
	logs := [2]Log{newLog(capacity), newLog(capacity)}
	var models [2]model
	type saved struct {
		snap any
		m    model
	}
	var held [slots]*saved
	var nextID uint64

	check := func(step int, which int) {
		t.Helper()
		want := models[which].retained(capacity)
		if got := logs[which].Total(); got != uint64(len(models[which])) {
			t.Fatalf("step %d log %d: total %d, want %d", step, which, got, len(models[which]))
		}
		if got := logs[which].IDs(); !slices.Equal(got, want) {
			t.Fatalf("step %d log %d: retained %v, want %v", step, which, got, want)
		}
	}

	for step, b := range prog {
		op, which, arg := b&7, int(b>>3&1), int(b>>4)
		l := logs[which]
		switch op {
		case 0, 1, 2:
			n := (arg + 1) * [...]int{1, 16, 67}[op]
			for i := 0; i < n; i++ {
				nextID++
				l.Append(nextID)
				models[which] = append(models[which], nextID)
			}
		case 3, 4:
			var dead any
			if s := held[arg%slots]; s != nil && op == 4 {
				dead = s.snap
			}
			held[arg%slots] = &saved{snap: l.Snapshot(dead), m: slices.Clone(models[which])}
		case 5, 6:
			if s := held[arg%slots]; s != nil {
				l.Restore(s.snap)
				models[which] = slices.Clone(s.m)
			}
		case 7:
			l.Reset()
			models[which] = nil
		}
		check(step, 0)
		check(step, 1)
	}
	for _, s := range held {
		if s == nil {
			continue
		}
		for which := range logs {
			logs[which].Restore(s.snap)
			models[which] = slices.Clone(s.m)
			check(len(prog), which)
		}
	}
}
