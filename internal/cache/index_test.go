package cache

import (
	"math/rand"
	"testing"
	"unsafe"

	"drftest/internal/mem"
)

// TestLineSize pins the line header at one cache line of the host: the
// way index lives in the padding after valid, and the only slice is
// Data, so the large configuration's 49 152 lines cost 64 bytes each
// beside their payload.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 64 {
		t.Fatalf("Line is %d bytes, want 64", got)
	}
}

// scanValid is the index oracle: the set-major, way-minor walk over
// every way that the whole-array operations used to make.
func scanValid(a *Array) []*Line {
	var out []*Line
	for s := range a.sets {
		for w := range a.sets[s] {
			if a.sets[s][w].valid {
				out = append(out, &a.sets[s][w])
			}
		}
	}
	return out
}

// checkIndex asserts the index invariants: bit i set exactly when
// lines[i] is valid, every invalid line in the just-built state, the
// popcount equal to the scan's count, and the index walk visiting the
// scan's lines in the scan's order.
func checkIndex(t *testing.T, a *Array, at string) {
	t.Helper()
	for i := range a.lines {
		l := &a.lines[i]
		if int(l.idx) != i {
			t.Fatalf("%s: line %d carries index %d", at, i, l.idx)
		}
		if bit := a.live[i>>6]>>(i&63)&1 == 1; bit != l.valid {
			t.Fatalf("%s: line %d: index bit %v, valid %v", at, i, bit, l.valid)
		}
		if !l.valid && l.lastUse != 0 {
			t.Fatalf("%s: invalid line %d keeps LRU stamp %d", at, i, l.lastUse)
		}
	}
	want := scanValid(a)
	if n := a.CountValid(); n != len(want) {
		t.Fatalf("%s: CountValid = %d, scan finds %d", at, n, len(want))
	}
	var got []*Line
	a.forValid(false, func(l *Line) { got = append(got, l) })
	sameVisits(t, got, want, at+": index walk")
}

func sameVisits(t *testing.T, got, want []*Line, at string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s visited %d lines, scan finds %d", at, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: visit %d is line %d, scan order has line %d", at, i, got[i].idx, want[i].idx)
		}
	}
}

// runIndexProgram interprets prog as a byte-coded sequence of array
// operations — one opcode byte and one operand byte per step — and
// checks the index invariants after every step, every visitor's order
// against the full scan, and every Restore (armed, non-armed, into
// recycled snapshots) against the full-copy oracle.
func runIndexProgram(t *testing.T, cfg Config, prog []byte) {
	t.Helper()
	type saved struct {
		snap *ArraySnapshot
		want *fullCopy
	}
	a := NewArray(cfg)
	var held [3]*saved
	// Twice the capacity in distinct lines: sets overflow and evict.
	addrOf := func(b byte) mem.Addr {
		return mem.Addr(int(b) * 37 % (2 * len(a.lines)) * cfg.LineSize)
	}
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%10, prog[pc+1]
		addr := addrOf(arg)
		switch op {
		case 0, 1: // fill on a miss: Install straight over the victim (the
			// controllers' shape), or after invalidating it by pointer
			if a.Lookup(addr) == nil {
				way := a.Victim(addr, nil)
				if op == 1 {
					a.InvalidateLine(way) // a no-op on a free way
				}
				a.Install(way, addr, int(arg%4))
			}
		case 2: // pinned Victim: may find nothing to evict
			if way := a.Victim(addr, func(l *Line) bool { return l.State != int(arg%4) }); way != nil {
				a.Install(way, addr, int(arg%4))
			}
		case 3:
			if l := a.Lookup(addr); l != nil {
				l.WriteMasked([]byte{arg}, nil)
			}
		case 4:
			a.Invalidate(addr)
		case 5: // flash with a keeping visitor
			want := scanValid(a)
			var got []*Line
			kept := 0
			n := a.FlashInvalidate(func(l *Line) bool {
				got = append(got, l)
				if l.State == int(arg%5) { // 4 keeps nothing
					kept++
					return false
				}
				return true
			})
			sameVisits(t, got, want, "FlashInvalidate")
			if n != len(want)-kept || a.CountValid() != kept {
				t.Fatalf("pc %d: flash dropped %d of %d keeping %d, %d remain", pc, n, len(want), kept, a.CountValid())
			}
		case 6: // mutating walk
			want := scanValid(a)
			var got []*Line
			a.ForEachValid(func(l *Line) {
				got = append(got, l)
				l.State = (l.State + int(arg)) % 4
			})
			sameVisits(t, got, want, "ForEachValid")
		case 7:
			if arg%4 == 0 {
				a.Reset()
			}
		case 8: // snapshot, into a recycled slot half the time
			k := int(arg) % len(held)
			var dead *ArraySnapshot
			if held[k] != nil && arg&0x80 != 0 {
				dead = held[k].snap
			}
			held[k] = &saved{want: copyArray(a)}
			held[k].snap = a.SnapshotInto(dead)
			if got, want := len(held[k].snap.hdrs), a.CountValid(); got != want {
				t.Fatalf("pc %d: snapshot stores %d lines, array holds %d", pc, got, want)
			}
		case 9:
			if s := held[int(arg)%len(held)]; s != nil {
				a.Restore(s.snap)
				if d := s.want.diff(a); d != "" {
					t.Fatalf("pc %d: restore: %s", pc, d)
				}
			}
		}
		checkIndex(t, a, "after step "+string(rune('0'+op)))
	}
}

// indexConfigs are a small array whose index is part of one word and a
// 16-way one spanning two.
var indexConfigs = []Config{
	{SizeBytes: 512, LineSize: 16, Assoc: 2},
	{SizeBytes: 2048, LineSize: 16, Assoc: 16},
}

// TestArrayIndexModel runs random byte-coded programs against the
// full-scan model of the valid-line index.
func TestArrayIndexModel(t *testing.T) {
	for _, cfg := range indexConfigs {
		for seed := int64(0); seed < 40; seed++ {
			prog := make([]byte, 1200)
			rand.New(rand.NewSource(seed)).Read(prog)
			runIndexProgram(t, cfg, prog)
		}
	}
}

// FuzzArrayIndex is the same model behind the native fuzzer.
func FuzzArrayIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 8, 0, 5, 4, 9, 0})
	f.Add([]byte{0, 7, 8, 1, 4, 7, 8, 2, 9, 1, 7, 0, 9, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		for _, cfg := range indexConfigs {
			runIndexProgram(t, cfg, prog)
		}
	})
}

// sparseArray is the large configuration's L2 — 1 MB, 16-way, 16 384
// ways — holding eight lines, with two recycled snapshots of that
// content and a refill that puts the eight back after an operation
// that drops them.
func sparseArray() (a *Array, s1, s2 *ArraySnapshot, refill func()) {
	a = NewArray(Config{SizeBytes: 1 << 20, LineSize: 64, Assoc: 16})
	refill = func() {
		for i := 0; i < 8; i++ {
			addr := mem.Addr(i * 0x2040)
			if a.Lookup(addr) == nil {
				a.Install(a.Victim(addr, nil), addr, 1)
			}
		}
	}
	refill()
	return a, a.Snapshot(), a.Snapshot(), refill
}

var wholeOpsSink int

// wholeOps are the six whole-array operations, each leaving the
// sparse array as it found it: the two that drop the lines refill
// them, and the non-armed Restore alternates two snapshots.
func wholeOps() []struct {
	name string
	run  func()
} {
	a, s1, s2, refill := sparseArray()
	return []struct {
		name string
		run  func()
	}{
		{"Refill", refill}, // baseline for the two below
		{"FlashInvalidate+Refill", func() { wholeOpsSink += a.FlashInvalidate(nil); refill() }},
		{"Reset+Refill", func() { a.Reset(); refill() }},
		{"ForEachValid", func() { a.ForEachValid(func(l *Line) { wholeOpsSink += l.State }) }},
		{"CountValid", func() { wholeOpsSink += a.CountValid() }},
		{"SnapshotInto", func() { s1 = a.SnapshotInto(s1) }},
		{"RestoreNonArmed", func() { a.Restore(s2); s1, s2 = s2, s1 }},
	}
}

// TestArrayWholeOpsSteadyStateAllocs pins all six whole-array
// operations at zero allocations once their storage has been used.
func TestArrayWholeOpsSteadyStateAllocs(t *testing.T) {
	for _, op := range wholeOps() {
		op.run()
		if n := testing.AllocsPerRun(20, op.run); n != 0 {
			t.Errorf("%s allocated %v objects per run, want 0", op.name, n)
		}
	}
}

// BenchmarkArrayWholeOpsSparse times the whole-array operations on a
// 16 384-way array holding eight lines: each must cost the eight, not
// the 16 384.
func BenchmarkArrayWholeOpsSparse(b *testing.B) {
	for _, op := range wholeOps() {
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op.run()
			}
		})
	}
}
