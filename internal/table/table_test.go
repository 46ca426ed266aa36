package table

import (
	"maps"
	"slices"
	"testing"
)

// shapes are the key families the product puts in a table. Op bytes
// pick a family and an index within it.
var shapes = [4]func(i uint64) uint64{
	func(i uint64) uint64 { return i * 64 },                  // line addresses, 0 included
	func(i uint64) uint64 { return i },                       // small consecutive IDs
	func(i uint64) uint64 { return sameHome(7, i) },          // one home slot, mid-array
	func(i uint64) uint64 { return sameHome(minSlots-1, i) }, // a cluster that wraps the array end
}

// sameHome returns the i-th key whose home slot in a minSlots table is
// home (and, the hash taking high bits, home<<k or its neighbour in any
// larger one: the cluster survives growth).
func sameHome(home int, i uint64) uint64 {
	t := Table[uint64, int]{shift: shiftFor(minSlots)}
	for k := uint64(1); ; k++ {
		if t.home(k) == home {
			if i == 0 {
				return k
			}
			i--
		}
	}
}

// check asserts t equals model in contents and Len, that iteration
// yields exactly the contents, and the backward-shift invariant: every
// key is reached from its home slot without crossing a free slot.
func check(t *testing.T, tab *Table[uint64, int], model map[uint64]int, step int) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("step %d: Len %d, model has %d", step, tab.Len(), len(model))
	}
	for k, want := range model {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("step %d: Get(%d) = %d, %v; model has %d", step, k, got, ok, want)
		}
		if p := tab.Ptr(k); p == nil || *p != want {
			t.Fatalf("step %d: Ptr(%d) disagrees with the model", step, k)
		}
	}
	seen := map[uint64]int{}
	tab.Each(func(k uint64, v *int) { seen[k] = *v })
	if !maps.Equal(seen, model) {
		t.Fatalf("step %d: Each visited %v, model is %v", step, seen, model)
	}
	used := 0
	for i, s := range tab.slots {
		if !s.used {
			if s != (slot[uint64, int]{}) {
				t.Fatalf("step %d: free slot %d is not zero: %+v", step, i, s)
			}
			continue
		}
		used++
		mask := len(tab.slots) - 1
		for j := tab.home(s.key); j != i; j = (j + 1) & mask {
			if !tab.slots[j].used {
				t.Fatalf("step %d: key %d in slot %d is cut off from its home %d by free slot %d",
					step, s.key, i, tab.home(s.key), j)
			}
		}
	}
	if used != len(model) {
		t.Fatalf("step %d: %d used slots for %d keys", step, used, len(model))
	}
}

// runProgram interprets prog against a table and a plain map. Each op
// is two bytes: the low three bits of the first select the operation,
// the next two the key shape; the second byte is the key index.
func runProgram(t *testing.T, prog []byte) {
	var tab Table[uint64, int]
	model := map[uint64]int{}
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step], uint64(prog[step+1])
		k := shapes[op>>3&3](arg % 24)
		switch op & 7 {
		case 0, 1: // insert or overwrite
			tab.Put(k, step+1)
			model[k] = step + 1
		case 2:
			p := tab.Slot(k)
			if *p != model[k] {
				t.Fatalf("step %d: Slot(%d) holds %d, model %d", step, k, *p, model[k])
			}
			*p += 3
			model[k] += 3
		case 3, 4:
			_, had := model[k]
			if tab.Delete(k) != had {
				t.Fatalf("step %d: Delete(%d) reported %v, model had it: %v", step, k, !had, had)
			}
			delete(model, k)
		case 5: // absent lookups too
			if _, ok := tab.Get(k + 1); ok != has(model, k+1) {
				t.Fatalf("step %d: Get(%d) presence %v", step, k+1, ok)
			}
		case 6:
			if arg%8 == 0 {
				tab.Clear()
				clear(model)
			}
		case 7: // round trip through a smaller, equal or larger table
			var dst Table[uint64, int]
			for i := uint64(0); i < []uint64{0, 5, 40}[arg%3]; i++ {
				dst.Put(i*8+1, -1)
			}
			if arg&4 != 0 {
				// Recycled storage in any state: CopyFrom may trust only
				// the slot array's length.
				dst.n, dst.shift = 0x5a, 0xa5
				for i := range dst.slots {
					dst.slots[i] = slot[uint64, int]{key: 0xa5, used: true, val: 0x5a}
				}
			}
			dst.CopyFrom(&tab)
			check(t, &dst, model, step)
			dst.Put(k, step)
			dst.Delete(k)
			tab.CopyFrom(&dst)
			delete(model, k)
		}
		check(t, &tab, model, step)
	}
}

func has(m map[uint64]int, k uint64) bool { _, ok := m[k]; return ok }

// programs are the fixed seeds of the model test and the fuzz corpus:
// fill-and-drain per key shape, interleaved deletes inside a wrapped
// cluster, and copies across table sizes.
func programs() [][]byte {
	var ps [][]byte
	for shape := byte(0); shape < 4; shape++ {
		var p []byte
		for i := byte(0); i < 24; i++ {
			p = append(p, shape<<3, i)
		}
		for i := byte(0); i < 24; i += 2 {
			p = append(p, shape<<3|3, i)
		}
		p = append(p, shape<<3|7, 0, shape<<3|7, 1, shape<<3|7, 2, shape<<3|7, 4, shape<<3|7, 5, shape<<3|7, 6)
		for i := byte(0); i < 24; i++ {
			p = append(p, shape<<3|4, 23-i, shape<<3|2, i/2)
		}
		p = append(p, shape<<3|6, 0, shape<<3, 1, shape<<3|7, 2)
		ps = append(ps, p)
	}
	// Delete from the middle of a cluster wrapped around the array end
	// while keys of other homes sit inside it.
	ps = append(ps, []byte{3 << 3, 0, 3 << 3, 1, 1 << 3, 0, 3 << 3, 2, 0, 1, 3<<3 | 3, 0, 3<<3 | 3, 1, 1<<3 | 3, 0, 3<<3 | 3, 2})
	return ps
}

func TestTableMatchesMap(t *testing.T) {
	for _, p := range programs() {
		runProgram(t, p)
	}
	// A long pseudo-random program over all shapes and ops.
	var p []byte
	x := uint32(1)
	for i := 0; i < 20_000; i++ {
		x = x*1664525 + 1013904223
		p = append(p, byte(x>>24))
	}
	runProgram(t, p)
}

func FuzzTable(f *testing.F) {
	for _, p := range programs() {
		f.Add(p)
	}
	f.Fuzz(runProgram)
}

// TestIterationIsSlotOrder pins that two tables with the same history
// iterate identically: the order is a function of the operations, not
// of a per-iterator random seed.
func TestIterationIsSlotOrder(t *testing.T) {
	order := func() []uint64 {
		var tab Table[uint64, int]
		for i := uint64(0); i < 40; i++ {
			tab.Put(i*64, 0)
		}
		for i := uint64(0); i < 40; i += 3 {
			tab.Delete(i * 64)
		}
		var ks []uint64
		tab.Each(func(k uint64, _ *int) { ks = append(ks, k) })
		return ks
	}
	if a, b := order(), order(); !slices.Equal(a, b) {
		t.Fatalf("same history, different iteration order:\n%v\n%v", a, b)
	}
}

// TestSteadyStateAllocs pins that a warm table allocates nothing:
// insert/delete churn, Clear and refill, CopyFrom either way between
// warm tables — and regrowth after a CopyFrom from a smaller table,
// which restores an explorer cut taken before the live table grew.
func TestSteadyStateAllocs(t *testing.T) {
	var live, small, cut Table[uint64, *int]
	x := new(int)
	fill := func(tab *Table[uint64, *int], n uint64) {
		for i := uint64(0); i < n; i++ {
			tab.Put(i*64, x)
		}
	}
	fill(&small, 4)
	fill(&live, 40)
	cut.CopyFrom(&live)
	if got := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 40; i += 2 {
			live.Delete(i * 64)
		}
		fill(&live, 40)
		cut.CopyFrom(&live)
		live.Clear()
		fill(&live, 40)
		live.CopyFrom(&small) // rewind to a cut from before the growth…
		fill(&live, 40)       // …and grow back
		live.CopyFrom(&cut)
		small.Clear()
		fill(&small, 4)
	}); got != 0 {
		t.Fatalf("warm table allocated %.1f objects per round, want 0", got)
	}
	// Nothing but an insert allocates — not a copy of an emptied table
	// either, whatever capacity it has: a fresh snapshot of idle state
	// costs no slot arrays.
	var zero Table[uint64, *int]
	live.Clear()
	if got := testing.AllocsPerRun(100, func() {
		zero.Get(64)
		zero.Delete(64)
		zero.Each(func(uint64, **int) {})
		zero.Clear()
		zero.CopyFrom(&live)
	}); got != 0 || zero.slots != nil {
		t.Fatalf("an empty table allocated (%.1f objects) before its first insert", got)
	}
}

// BenchmarkChurn is the controllers' access mix — lookup, insert,
// lookup, delete — on 16 live line-address keys, against the Go map
// the tables replaced.
func BenchmarkChurn(b *testing.B) {
	const live = 16
	b.Run("table", func(b *testing.B) {
		var tab Table[uint64, int]
		for i := uint64(0); i < live; i++ {
			tab.Put(i*64, 1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i+live) * 64
			_, _ = tab.Get(k)
			tab.Put(k, i)
			*tab.Ptr(k)++
			tab.Delete(k - live*64)
		}
	})
	b.Run("map", func(b *testing.B) {
		m := map[uint64]int{}
		for i := uint64(0); i < live; i++ {
			m[i*64] = 1
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i+live) * 64
			_ = m[k]
			m[k] = i
			m[k]++
			delete(m, k-live*64)
		}
	})
}
