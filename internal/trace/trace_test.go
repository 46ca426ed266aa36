package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"drftest/internal/logtest"
)

func TestDisabledRing(t *testing.T) {
	for _, r := range []*Ring{nil, NewRing(0), NewRing(-3), {}} {
		if r.Enabled() {
			t.Fatal("zero-capacity ring reports enabled")
		}
		r.Append(1, "c", "l", 2)
		if r.Len() != 0 || r.Total() != 0 || r.Last(5) != nil || r.Entries() != nil {
			t.Fatal("disabled ring recorded an entry")
		}
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Append(uint64(i*10), "c", "l", uint64(i))
	}
	if r.Len() != 4 || r.Total() != 10 || r.Cap() != 4 {
		t.Fatalf("len=%d total=%d cap=%d, want 4/10/4", r.Len(), r.Total(), r.Cap())
	}
	got := r.Entries()
	for i, e := range got {
		want := uint64(7 + i) // entries 7..10 survive
		if e.Seq != want || e.Addr != want || e.Tick != want*10 {
			t.Fatalf("entry %d = %+v, want seq/addr %d", i, e, want)
		}
	}
}

// TestRingReset: a reset ring must be indistinguishable from a
// just-built one — sequence numbers restart at 1 and old entries are
// unreachable — which is what lets a campaign's reused trace ring
// produce artifacts bit-identical to a fresh single-seed run's.
func TestRingReset(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 7; i++ {
		r.Append(uint64(i), "old", "l", 0)
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || r.Entries() != nil {
		t.Fatalf("reset ring not empty: len=%d total=%d", r.Len(), r.Total())
	}
	if r.Cap() != 4 || !r.Enabled() {
		t.Fatal("reset changed the ring's capacity or enablement")
	}
	r.Append(50, "new", "l", 9)
	got := r.Entries()
	if len(got) != 1 || got[0].Seq != 1 || got[0].Component != "new" {
		t.Fatalf("post-reset entries = %+v, want one entry with Seq 1", got)
	}
	var nilRing *Ring
	nilRing.Reset() // must not panic
}

func TestRingLastOrdering(t *testing.T) {
	r := NewRing(8)
	for i := 1; i <= 5; i++ {
		r.Append(uint64(i), "c", "l", 0)
	}
	last := r.Last(3)
	if len(last) != 3 || last[0].Seq != 3 || last[2].Seq != 5 {
		t.Fatalf("Last(3) = %+v", last)
	}
	if got := r.Last(99); len(got) != 5 {
		t.Fatalf("Last(99) returned %d entries, want all 5", len(got))
	}
	if r.Last(0) != nil || r.Last(-1) != nil {
		t.Fatal("Last with n<=0 must return nil")
	}
}

// TestRingProperty: for any capacity and append count, the ring holds
// the newest min(appends, capacity) entries with consecutive sequence
// numbers ending at the total, oldest first.
func TestRingProperty(t *testing.T) {
	err := quick.Check(func(capRaw uint8, appends uint16) bool {
		capacity := int(capRaw % 33) // 0..32, including disabled
		r := NewRing(capacity)
		n := int(appends % 200)
		for i := 1; i <= n; i++ {
			r.Append(uint64(i), "c", "l", uint64(i))
		}
		if capacity == 0 {
			return r.Len() == 0 && r.Total() == 0
		}
		want := n
		if want > capacity {
			want = capacity
		}
		got := r.Entries()
		if len(got) != want || r.Total() != uint64(n) {
			return false
		}
		for i, e := range got {
			wantSeq := uint64(n - want + 1 + i)
			if e.Seq != wantSeq || e.Addr != wantSeq || e.Tick != wantSeq {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

// ringLog adapts a Ring to the shared rolling-log driver: the id is
// carried in Tick and Addr, and the sequence numbers must stay
// consecutive up to the total through every snapshot and restore.
type ringLog struct {
	t testing.TB
	r *Ring
}

func newRingLog(t testing.TB) func(int) logtest.Log {
	return func(capacity int) logtest.Log { return ringLog{t, NewRing(capacity)} }
}

func (l ringLog) Append(id uint64) { l.r.Append(id, "c", "l", id) }
func (l ringLog) Total() uint64    { return l.r.Total() }
func (l ringLog) Reset()           { l.r.Reset() }
func (l ringLog) Restore(s any)    { l.r.Restore(s.(*RingSnapshot)) }

func (l ringLog) Snapshot(dead any) any {
	d, _ := dead.(*RingSnapshot)
	return l.r.SnapshotInto(d)
}

func (l ringLog) IDs() []uint64 {
	var ids []uint64
	first := l.r.Total() - uint64(l.r.Len()) + 1
	for i, e := range l.r.Entries() {
		if e.Seq != first+uint64(i) || e.Tick != e.Addr {
			l.t.Fatalf("entry %d = %+v, want seq %d", i, e, first+uint64(i))
		}
		ids = append(ids, e.Addr)
	}
	return ids
}

// logCapacities straddle the chunk size: single-chunk logs, exact
// multiples, one over, and several chunks.
var logCapacities = []int{1, 3, chunkLen - 1, chunkLen, chunkLen + 1, 2*chunkLen + 2, 200}

// TestRingSnapshotModel is the rolling log's property test: random
// programs of appends, resets and interleaved snapshots and restores —
// non-LIFO, across two rings, into recycled snapshots, wrapping several
// times past shared chunks — must match a plain-slice model at every
// step (see logtest.Run for the program encoding).
func TestRingSnapshotModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(12))
	for _, capacity := range logCapacities {
		for i := 0; i < 40; i++ {
			prog := make([]byte, 150)
			rnd.Read(prog)
			logtest.Run(t, capacity, newRingLog(t), prog)
		}
	}
}

// TestRingAppendZeroAlloc pins the recording path: appending never
// allocates, wrapped or not, as long as no snapshot shares the chunks.
func TestRingAppendZeroAlloc(t *testing.T) {
	r := NewRing(100)
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			r.Append(uint64(i), "c", "l", 0)
		}
	}); n != 0 {
		t.Fatalf("Ring.Append allocated %v objects per 1000 appends, want 0", n)
	}
}

// FuzzRing drives the fill invariants from fuzzed (capacity, count)
// pairs, including the wraparound boundary cases, then runs prog as a
// snapshot/restore program against the plain-slice model.
func FuzzRing(f *testing.F) {
	f.Add(0, 10, []byte{})
	f.Add(1, 1, []byte{0x03, 0x00, 0x05})
	f.Add(4, 4, []byte{0x12, 0x03, 0x1a, 0x0d, 0x14, 0x05})
	f.Add(4, 5, []byte{0x07, 0x03, 0x05})
	f.Add(16, 1000, []byte{0xf2, 0x03, 0xf2, 0x13, 0x1d, 0x02, 0x05, 0x24, 0x0e})
	f.Add(130, 70, []byte{0x32, 0x03, 0x3a, 0x13, 0x0d, 0x15, 0x22, 0x04, 0x0d, 0x07, 0x15})
	f.Fuzz(func(t *testing.T, capacity, n int, prog []byte) {
		if capacity > 1<<12 || n > 1<<14 || n < 0 || len(prog) > 256 {
			t.Skip()
		}
		r := NewRing(capacity)
		for i := 1; i <= n; i++ {
			r.Append(uint64(i), "c", "l", uint64(i))
		}
		if capacity <= 0 {
			if r.Enabled() || r.Len() != 0 {
				t.Fatal("disabled ring held entries")
			}
			return
		}
		if r.Total() != uint64(n) {
			t.Fatalf("total=%d want %d", r.Total(), n)
		}
		got := r.Entries()
		for i := 1; i < len(got); i++ {
			if got[i].Seq != got[i-1].Seq+1 {
				t.Fatalf("non-consecutive seqs at %d: %d after %d", i, got[i].Seq, got[i-1].Seq)
			}
		}
		if len(got) > 0 && got[len(got)-1].Seq != uint64(n) {
			t.Fatalf("newest seq %d, want %d", got[len(got)-1].Seq, n)
		}
		if capacity <= 4*chunkLen {
			logtest.Run(t, capacity, newRingLog(t), prog)
		}
	})
}
