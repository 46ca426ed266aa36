package cache

import (
	"runtime"
	"testing"
	"testing/quick"

	"drftest/internal/mem"
)

var cfg64 = Config{SizeBytes: 1024, LineSize: 64, Assoc: 2} // 8 sets × 2 ways

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineSize: 64, Assoc: 2},
		{SizeBytes: 1000, LineSize: 64, Assoc: 2},  // not a power of two
		{SizeBytes: 64, LineSize: 64, Assoc: 2},    // too small for assoc
		{SizeBytes: 1024, LineSize: 48, Assoc: 2},  // line not power of two
		{SizeBytes: 1024, LineSize: 64, Assoc: -1}, // negative
		{SizeBytes: 1024, LineSize: 2, Assoc: 2},   // line shorter than a word
		{SizeBytes: 1024, LineSize: 1, Assoc: 2},
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewArray(%+v) did not panic", c)
				}
			}()
			NewArray(c)
		}()
	}
	if err := (Config{SizeBytes: 1024, LineSize: mem.WordSize, Assoc: 2}).Validate(); err != nil {
		t.Errorf("a one-word line was rejected: %v", err)
	}
	if got := cfg64.Sets(); got != 8 {
		t.Fatalf("Sets() = %d, want 8", got)
	}
}

func TestInstallThenLookup(t *testing.T) {
	a := NewArray(cfg64)
	err := quick.Check(func(raw uint16) bool {
		addr := mem.Addr(raw) * 4
		line := mem.LineAddr(addr, 64)
		v := a.Victim(addr, nil)
		a.Install(v, addr, 1)
		got := a.Lookup(addr)
		return got != nil && got.Tag == line && got.State == 1
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLookupMiss(t *testing.T) {
	a := NewArray(cfg64)
	if a.Lookup(0x1000) != nil {
		t.Fatal("empty cache hit")
	}
	lookups, hits := a.Stats()
	if lookups != 1 || hits != 0 {
		t.Fatalf("stats (%d,%d), want (1,0)", lookups, hits)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	a := NewArray(cfg64)
	// Three lines mapping to set 0 (stride = sets*lineSize = 512).
	addrs := []mem.Addr{0, 512, 1024}
	a.Install(a.Victim(addrs[0], nil), addrs[0], 1)
	a.Install(a.Victim(addrs[1], nil), addrs[1], 1)
	a.Lookup(addrs[0]) // make addrs[1] the LRU
	v := a.Victim(addrs[2], nil)
	if !v.Valid() || v.Tag != addrs[1] {
		t.Fatalf("victim is %#x (valid=%v), want %#x", uint64(v.Tag), v.Valid(), uint64(addrs[1]))
	}
}

func TestVictimRespectsPin(t *testing.T) {
	a := NewArray(cfg64)
	a.Install(a.Victim(0, nil), 0, 1)
	a.Install(a.Victim(512, nil), 512, 2)
	// Pin everything: no victim available.
	if v := a.Victim(1024, func(*Line) bool { return false }); v != nil {
		t.Fatalf("pinned set yielded victim %#x", uint64(v.Tag))
	}
	// Allow only state 2.
	v := a.Victim(1024, func(l *Line) bool { return l.State == 2 })
	if v == nil || v.Tag != 512 {
		t.Fatal("filter ignored")
	}
}

func TestInstallZeroesData(t *testing.T) {
	a := NewArray(cfg64)
	v := a.Victim(0, nil)
	e := a.Install(v, 0, 1)
	e.WriteMasked([]byte{1, 2, 3}, nil)
	if e.Data[0] != 1 {
		t.Fatal("unmasked WriteMasked did not write")
	}
	a.Install(e, 512, 1)
	for _, b := range e.Data {
		if b != 0 {
			t.Fatal("Install did not zero the data")
		}
	}
}

func TestWriteMasked(t *testing.T) {
	a := NewArray(cfg64)
	e := a.Install(a.Victim(0, nil), 0, 1)
	src := make([]byte, 64)
	mask := make([]bool, 64)
	src[5], mask[5] = 0xAB, true
	e.WriteMasked(src, mask)
	if e.Data[5] != 0xAB || e.Data[4] != 0 {
		t.Fatal("masked write wrong bytes")
	}
}

func TestFlashInvalidate(t *testing.T) {
	a := NewArray(cfg64)
	for i := mem.Addr(0); i < 4; i++ {
		addr := i * 64
		a.Install(a.Victim(addr, nil), addr, int(i%2)) // states 0 and 1
	}
	kept := 0
	n := a.FlashInvalidate(func(l *Line) bool {
		if l.State == 1 {
			kept++
			return false
		}
		return true
	})
	if n != 2 || kept != 2 {
		t.Fatalf("flash invalidated %d, kept %d", n, kept)
	}
	if a.CountValid() != 2 {
		t.Fatalf("%d valid lines remain, want 2", a.CountValid())
	}
}

func TestInvalidate(t *testing.T) {
	a := NewArray(cfg64)
	a.Install(a.Victim(0x40, nil), 0x40, 1)
	a.Invalidate(0x40)
	if a.Peek(0x40) != nil {
		t.Fatal("line survives Invalidate")
	}
	a.Invalidate(0x9999) // no-op on absent lines
}

// TestNoAliasing: lines installed at distinct line addresses never
// collide in Lookup.
func TestNoAliasing(t *testing.T) {
	a := NewArray(Config{SizeBytes: 4096, LineSize: 64, Assoc: 4})
	installed := map[mem.Addr]bool{}
	for i := 0; i < 64; i++ {
		addr := mem.Addr(i * 64)
		v := a.Victim(addr, nil)
		if v.Valid() {
			delete(installed, v.Tag)
		}
		a.Install(v, addr, 7)
		installed[addr] = true
		for tag := range installed {
			if got := a.Peek(tag); got == nil || got.Tag != tag {
				t.Fatalf("line %#x lost or aliased", uint64(tag))
			}
		}
	}
}

// TestNewArrayZeroAllocatedPlanes pins what building an array costs:
// its probe rows and index, 16 bytes per way, and no way plane until a
// line of it is handed out. The large configuration's 1 MB 16-way L2
// took 2 306 KB in six allocations while NewArray laid out every line
// up front, and takes 258 KB in four now.
func TestNewArrayZeroAllocatedPlanes(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 20, LineSize: 64, Assoc: 16}
	for w, p := range NewArray(cfg).planes {
		if p != nil {
			t.Fatalf("a just-built array holds a plane for way %d", w)
		}
	}
	var a *Array
	allocs := testing.AllocsPerRun(5, func() { a = NewArray(cfg) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		a = NewArray(cfg)
	}
	runtime.ReadMemStats(&after)
	kb := (after.TotalAlloc - before.TotalAlloc) / runs >> 10
	t.Logf("NewArray(%+v): %.0f objects, %d KB", cfg, allocs, kb)
	if allocs > 4 || kb > 300 {
		t.Fatalf("NewArray(%+v) allocated %.0f objects and %d KB, want at most 4 and 300 KB", cfg, allocs, kb)
	}
	// The first fill builds way 0's plane alone.
	a.Install(a.Victim(0, nil), 0, 1)
	for w, p := range a.planes {
		if (p != nil) != (w == 0) {
			t.Fatalf("after one fill, way %d's plane built is %v", w, p != nil)
		}
	}
}
