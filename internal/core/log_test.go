package core

import (
	"math/rand"
	"testing"

	"drftest/internal/logtest"
	"drftest/internal/mem"
	"drftest/internal/trace"
)

// eventLog adapts an EventLog to the shared rolling-log driver; the id
// is carried in Tick and Addr.
type eventLog struct {
	t testing.TB
	l *EventLog
}

func newEventLogAdapter(t testing.TB) func(int) logtest.Log {
	return func(capacity int) logtest.Log { return eventLog{t, NewEventLog(capacity)} }
}

func (l eventLog) Append(id uint64) { l.l.Append(LogEntry{Tick: id, Addr: mem.Addr(id)}) }
func (l eventLog) Total() uint64    { return l.l.Total() }
func (l eventLog) Reset()           { l.l.Reset() }
func (l eventLog) Restore(s any)    { l.l.Restore(s.(*trace.LogSnapshot[LogEntry])) }

func (l eventLog) Snapshot(dead any) any {
	d, _ := dead.(*trace.LogSnapshot[LogEntry])
	return l.l.SnapshotInto(d)
}

func (l eventLog) IDs() []uint64 {
	var ids []uint64
	for i, e := range l.l.Recent(l.l.Cap()) {
		if e.Tick != uint64(e.Addr) {
			l.t.Fatalf("entry %d = %+v: torn", i, e)
		}
		ids = append(ids, e.Tick)
	}
	return ids
}

// TestEventLogSnapshotModel runs the rolling log's snapshot/restore
// property test (see trace.TestRingSnapshotModel) over the tester's
// EventLog: same storage, different entry type and front end.
func TestEventLogSnapshotModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(29))
	for _, capacity := range []int{1, 5, 64, 65, 256} {
		for i := 0; i < 30; i++ {
			prog := make([]byte, 150)
			rnd.Read(prog)
			logtest.Run(t, capacity, newEventLogAdapter(t), prog)
		}
	}
}

// FuzzEventLog is FuzzRing's snapshot/restore program over EventLog.
func FuzzEventLog(f *testing.F) {
	f.Add(4, []byte{0x12, 0x03, 0x1a, 0x0d, 0x14, 0x05})
	f.Add(130, []byte{0x32, 0x03, 0x3a, 0x13, 0x0d, 0x15, 0x22, 0x04, 0x0d, 0x07, 0x15})
	f.Fuzz(func(t *testing.T, capacity int, prog []byte) {
		if capacity < 1 || capacity > 256 || len(prog) > 256 {
			t.Skip()
		}
		logtest.Run(t, capacity, newEventLogAdapter(t), prog)
	})
}

// TestEventLogAppendZeroAlloc pins the tester's per-memop logging
// path: two appends per memop, none of which may allocate.
func TestEventLogAppendZeroAlloc(t *testing.T) {
	l := NewEventLog(256)
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			l.Append(LogEntry{Tick: uint64(i)})
		}
	}); n != 0 {
		t.Fatalf("EventLog.Append allocated %v objects per 1000 appends, want 0", n)
	}
}
