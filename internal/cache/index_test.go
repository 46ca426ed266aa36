package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"drftest/internal/mem"
)

// TestLineSize pins the line header at one cache line of the host: the
// way index lives in the padding after valid, and the only slice is
// Data, so the large configuration's 49 152 lines cost 64 bytes each
// beside their payload — and a probe that walked a 16-way set's headers
// read sixteen host lines where the two rows (8 bytes per way each)
// cost two.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 64 {
		t.Fatalf("Line is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(Line{}.Tag) + unsafe.Sizeof(Line{}.lastUse); got != 16 {
		t.Fatalf("the rows cost %d bytes per way, want 16", got)
	}
}

// ways returns the array's capacity in lines.
func ways(a *Array) int { return len(a.tags) }

// built returns line i when its way plane exists and nil otherwise. It
// builds nothing, so the oracles look at an array without changing
// which planes it holds; a line with no plane is in the just-built
// state.
func built(a *Array, i int) *Line {
	if p := a.planes[i&a.wayMask]; p != nil {
		return &p[i>>a.wayShift]
	}
	return nil
}

// scanValid is the index oracle: the set-major, way-minor walk over
// every way that the whole-array operations used to make.
func scanValid(a *Array) []*Line {
	var out []*Line
	for i := 0; i < ways(a); i++ {
		if l := built(a, i); l != nil && l.valid {
			out = append(out, l)
		}
	}
	return out
}

// refSet, refFind and refVictim are the probe oracle: the header walks
// Lookup, Peek and Victim made before the rows existed, set index by
// division included. They answer a line index, -1 for none, because
// the way Victim hands out may lie in a plane not built yet.
func refSet(a *Array, addr mem.Addr) int {
	return int(addr/mem.Addr(a.cfg.LineSize)) % a.cfg.Sets() * a.cfg.Assoc
}

func refFind(a *Array, addr mem.Addr) int {
	line := mem.LineAddr(addr, a.cfg.LineSize)
	base := refSet(a, addr)
	for i := base; i < base+a.cfg.Assoc; i++ {
		if l := built(a, i); l != nil && l.valid && l.Tag == line {
			return i
		}
	}
	return -1
}

func refVictim(a *Array, addr mem.Addr, mayEvict func(*Line) bool) int {
	base := refSet(a, addr)
	victim := -1
	for i := base; i < base+a.cfg.Assoc; i++ {
		l := built(a, i)
		if l == nil || !l.valid {
			return i
		}
		if mayEvict != nil && !mayEvict(l) {
			continue
		}
		if victim < 0 || l.lastUse < built(a, victim).lastUse {
			victim = i
		}
	}
	return victim
}

// probe wraps an array's three probes, failing the test when one
// returns another way than its header-walking reference, and its
// Restore. top is the highest way the array has handed out — by
// Victim or by a Restore's reinstall — or -1 before the first.
type probe struct {
	t   *testing.T
	a   *Array
	top int
}

func newProbe(t *testing.T, a *Array) *probe { return &probe{t: t, a: a, top: -1} }

func (p *probe) same(op string, addr mem.Addr, got *Line, want int) *Line {
	p.t.Helper()
	at := -1
	if got != nil {
		at = int(got.idx)
	}
	if at != want || got != nil && built(p.a, at) != got {
		p.t.Fatalf("%s(%#x) returns line %d, the header walk finds line %d", op, uint64(addr), at, want)
	}
	return got
}

func (p *probe) Lookup(addr mem.Addr) *Line {
	p.t.Helper()
	want := refFind(p.a, addr)
	return p.same("Lookup", addr, p.a.Lookup(addr), want)
}

func (p *probe) Peek(addr mem.Addr) *Line {
	p.t.Helper()
	want := refFind(p.a, addr)
	return p.same("Peek", addr, p.a.Peek(addr), want)
}

func (p *probe) Victim(addr mem.Addr, mayEvict func(*Line) bool) *Line {
	p.t.Helper()
	want := refVictim(p.a, addr, mayEvict)
	l := p.same("Victim", addr, p.a.Victim(addr, mayEvict), want)
	if l != nil {
		p.top = max(p.top, int(l.idx)&p.a.wayMask)
	}
	return l
}

func (p *probe) Restore(s *ArraySnapshot) {
	p.a.Restore(s)
	for _, h := range s.hdrs {
		p.top = max(p.top, int(h.idx)&p.a.wayMask)
	}
}

// checkIndex asserts the index, row and plane invariants: no plane
// above top, the highest way handed out; a line without a plane
// invalid, its index bit and row entries zero; on a built line, bit i
// set exactly when it is valid, each row entry what its header says,
// every invalid line in the just-built state and every valid one
// stamped; the popcount equal to the scan's count, and the index walk
// visiting the scan's lines in the scan's order.
func checkIndex(t *testing.T, a *Array, top int, at string) {
	t.Helper()
	for w, p := range a.planes {
		if p != nil && w > top {
			t.Fatalf("%s: way %d has a plane, but no way above %d was handed out", at, w, top)
		}
	}
	for i := 0; i < ways(a); i++ {
		bit := a.live[i>>6]>>(i&63)&1 == 1
		l := built(a, i)
		if l == nil {
			if bit || a.tags[i] != 0 || a.stamps[i] != 0 {
				t.Fatalf("%s: line %d has no plane, yet index bit %v and rows %#x/%d", at, i, bit, a.tags[i], a.stamps[i])
			}
			continue
		}
		if int(l.idx) != i {
			t.Fatalf("%s: line %d carries index %d", at, i, l.idx)
		}
		if bit != l.valid {
			t.Fatalf("%s: line %d: index bit %v, valid %v", at, i, bit, l.valid)
		}
		if l.valid == (l.lastUse == 0) {
			t.Fatalf("%s: line %d: valid %v with LRU stamp %d", at, i, l.valid, l.lastUse)
		}
		wantTag := uint64(0)
		if l.valid {
			wantTag = uint64(l.Tag) | 1
		}
		if a.tags[i] != wantTag || a.stamps[i] != l.lastUse {
			t.Fatalf("%s: line %d: rows hold tag %#x stamp %d, header says %#x and %d",
				at, i, a.tags[i], a.stamps[i], wantTag, l.lastUse)
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
// operations — one opcode byte and one operand byte per step — on a
// just-built array, which holds no plane, and checks the index, row
// and plane invariants after every step, every probe against its
// header walk, every visitor's order against the full scan, and every
// Restore (armed, non-armed, into recycled snapshots, into a fresh
// array) against the full-copy oracle.
func runIndexProgram(t *testing.T, cfg Config, prog []byte) {
	t.Helper()
	type saved struct {
		snap *ArraySnapshot
		want *fullCopy
	}
	a := NewArray(cfg)
	p := newProbe(t, a)
	checkIndex(t, a, p.top, "just built")
	var held [3]*saved
	// Up to twice the capacity in distinct lines: sets overflow and
	// evict.
	addrOf := func(b byte) mem.Addr {
		return mem.Addr(int(b) * 37 % (2 * ways(a)) * cfg.LineSize)
	}
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%11, prog[pc+1]
		addr := addrOf(arg)
		switch op {
		case 0, 1: // fill on a miss: Install straight over the victim (the
			// controllers' shape), or after invalidating it by pointer
			if p.Lookup(addr) == nil {
				way := p.Victim(addr, nil)
				if op == 1 {
					a.InvalidateLine(way) // a no-op on a free way
				}
				a.Install(way, addr, int(arg%4))
			}
		case 2: // pinned Victim: may find nothing to evict
			if way := p.Victim(addr, func(l *Line) bool { return l.State != int(arg%4) }); way != nil {
				a.Install(way, addr, int(arg%4))
			}
		case 3:
			if l := p.Lookup(addr); l != nil {
				l.WriteMasked([]byte{arg}, nil)
			}
		case 4:
			p.Peek(addr)
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
				p.Restore(s.snap)
				if d := s.want.diff(a); d != "" {
					t.Fatalf("pc %d: restore: %s", pc, d)
				}
			}
		case 10: // a just-built array reinstalls the cut, building only
			// the planes the cut's lines lie in
			if s := held[int(arg)%len(held)]; s != nil {
				q := newProbe(t, NewArray(cfg))
				q.Restore(s.snap)
				if d := s.want.diff(q.a); d != "" {
					t.Fatalf("pc %d: restore into a fresh array: %s", pc, d)
				}
				checkIndex(t, q.a, q.top, "restore into a fresh array")
			}
		}
		checkIndex(t, a, p.top, fmt.Sprintf("after step %d (op %d)", pc/2, op))
	}
}

// indexConfigs are a small array whose index is part of one word, a
// 16-way one spanning two whose sets overflow at once, and a 16-way one
// whose 256 distinct lines fill its 256 ways exactly, so a set builds
// its high ways' planes only once all 16 of its lines are held.
var indexConfigs = []Config{
	{SizeBytes: 512, LineSize: 16, Assoc: 2},
	{SizeBytes: 2048, LineSize: 16, Assoc: 16},
	{SizeBytes: 4096, LineSize: 16, Assoc: 16},
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
	f.Add([]byte{0, 1, 0, 2, 8, 0, 7, 0, 10, 0, 0, 3, 9, 0})
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

var probeSink *Line

// BenchmarkArrayProbe times Peek on a full array — every set holds
// Assoc lines, so a miss scans a whole set — over the two shapes the
// benchmark runs most: SmallCacheConfig's 2-way L1 and LargeCacheConfig's
// 16-way L2, whose 1 MB of line headers do not fit the host's L1/L2.
// Addresses step by a large odd number of lines, so successive probes
// land in unrelated sets; a hit probes a resident line, a miss the same
// set one array-size further on.
func BenchmarkArrayProbe(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"L1small2way", Config{SizeBytes: 256, LineSize: 64, Assoc: 2}},
		{"L2large16way", Config{SizeBytes: 1 << 20, LineSize: 64, Assoc: 16}},
	} {
		a := NewArray(c.cfg)
		n := ways(a)
		for i := 0; i < n; i++ {
			addr := mem.Addr(i * c.cfg.LineSize)
			a.Install(a.Victim(addr, nil), addr, 1)
		}
		for _, miss := range []bool{false, true} {
			name, off := c.name+"/hit", 0
			if miss {
				name, off = c.name+"/miss", n
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					probeSink = a.Peek(mem.Addr((i*7919&(n-1) + off) * c.cfg.LineSize))
				}
				if (probeSink == nil) != miss {
					b.Fatalf("last probe: line %v, want miss %v", probeSink, miss)
				}
			})
		}
	}
}
