package mem

import "testing"

func TestLineRefcountLifecycle(t *testing.T) {
	p := NewLinePool(64)
	l := p.Get(64)
	if l.Refs() != 1 {
		t.Fatalf("fresh line refs=%d", l.Refs())
	}
	if l.Mask() != nil {
		t.Fatal("fresh Get carries a mask")
	}
	l.Retain()
	if l.Refs() != 2 {
		t.Fatalf("after Retain refs=%d", l.Refs())
	}
	e := l.Epoch()
	l.Release()
	if l.Refs() != 1 || l.Epoch() != e {
		t.Fatal("non-final Release recycled the line")
	}
	l.Release()
	if l.Epoch() != e+1 {
		t.Fatal("final Release did not bump the epoch")
	}
	if g, a := p.Stats(); g != 1 || a != 1 {
		t.Fatalf("gets=%d allocs=%d", g, a)
	}
	// The recycled line comes back from the free stack, not a fresh
	// allocation.
	l2 := p.Get(64)
	if l2 != l {
		t.Fatal("pool did not recycle the released line")
	}
	if _, a := p.Stats(); a != 1 {
		t.Fatal("recycle counted as an allocation")
	}
}

func TestLineOverReleasePanics(t *testing.T) {
	p := NewLinePool(8)
	l := p.Get(8)
	l.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	l.Release()
}

func TestWritableCopiesExactlyWhenShared(t *testing.T) {
	p := NewLinePool(16)
	l := p.GetMasked(16)
	l.Data[0], l.Mask()[0] = 7, true

	// Sole owner: in place.
	if l.Writable() != l {
		t.Fatal("sole-owner Writable copied")
	}

	// Shared: copy; the caller's reference moves to the copy.
	l.Retain()
	w := l.Writable()
	if w == l {
		t.Fatal("shared Writable aliased")
	}
	if l.Refs() != 1 || w.Refs() != 1 {
		t.Fatalf("refs after COW: orig=%d copy=%d", l.Refs(), w.Refs())
	}
	if w.Data[0] != 7 || !w.Mask()[0] {
		t.Fatal("COW did not copy data+mask")
	}
	w.Data[0] = 9
	if l.Data[0] != 7 {
		t.Fatal("COW mutation leaked into the shared original")
	}
	w.Release()
	l.Release()
}

func TestMaskDetachesOnRecycle(t *testing.T) {
	p := NewLinePool(8)
	l := p.GetMasked(8)
	l.Mask()[3] = true
	l.Release()
	// Unmasked reuse of the same buffer must not expose the stale mask.
	l2 := p.Get(8)
	if l2 != l {
		t.Fatal("expected recycle")
	}
	if l2.Mask() != nil {
		t.Fatal("recycled line kept its mask attached")
	}
	// Masked reuse gets a zeroed mask even though the buffer is dirty.
	l2.Release()
	l3 := p.GetMasked(8)
	if l3.Mask()[3] {
		t.Fatal("GetMasked returned a dirty mask")
	}
	l3.Release()
}

func TestPoolResetForceReclaims(t *testing.T) {
	p := NewLinePool(8)
	a, b := p.Get(8), p.Get(8)
	b.Retain() // simulated holder that will be torn down without releasing
	p.Reset()
	if a.Refs() != 0 || b.Refs() != 0 {
		t.Fatal("Reset left references standing")
	}
	// Every line is reusable again; no allocation needed for the next 2.
	_, allocs := p.Stats()
	c, d := p.Get(8), p.Get(8)
	if _, a2 := p.Stats(); a2 != allocs {
		t.Fatal("Reset lost track of pooled lines")
	}
	if c == d {
		t.Fatal("pool handed out the same line twice")
	}
}

// TestSnapshotRestoreIdentity pins the checkpoint doctrine: Restore
// writes contents back into the SAME Line objects, so holders restored
// by identity still agree with their payloads, and the free order
// replays verbatim.
func TestSnapshotRestoreIdentity(t *testing.T) {
	p := NewLinePool(4)
	p.EnableTracking()
	a := p.Get(4)
	a.Data[0] = 1
	b := p.GetMasked(4)
	b.Data[1], b.Mask()[1] = 2, true
	b.Release() // parked on the free stack at snapshot time

	s := p.Snapshot()

	// Diverge: mutate a, recycle it, allocate a brand-new line.
	a.Data[0] = 99
	a.Release()
	c := p.Get(4) // pops one of the parked lines
	c.Data[2] = 3
	extra := p.Get(4) // forces a fresh allocation after the snapshot
	_ = extra

	p.Restore(s)
	if a.Data[0] != 1 || a.Refs() != 1 {
		t.Fatalf("restore missed line a: data=%d refs=%d", a.Data[0], a.Refs())
	}
	if b.Refs() != 0 {
		t.Fatal("restore resurrected the parked line")
	}
	// Replay the same Get: it must return the same object with the
	// same contents as at snapshot time (b was on the free stack).
	g := p.Get(4)
	if g != b {
		t.Fatal("free order did not replay: Get returned a different line")
	}
	if g.Mask() != nil {
		t.Fatal("replayed Get resurrected the stale mask")
	}
}

func TestAuditLive(t *testing.T) {
	p := NewLinePool(4)
	p.EnableTracking()
	l := p.Get(4)
	p.AuditLive(1)
	l.Release()
	p.AuditLive(0)
	defer func() {
		if recover() == nil {
			t.Fatal("AuditLive missed a leak")
		}
	}()
	p.Get(4)
	p.AuditLive(0)
}

// TestGetSteadyStateZeroAlloc pins the pool's whole point: after
// warmup, Get/Release cycles allocate nothing.
func TestGetSteadyStateZeroAlloc(t *testing.T) {
	p := NewLinePool(64)
	warm := make([]*Line, 8)
	for i := range warm {
		warm[i] = p.GetMasked(64)
	}
	for _, l := range warm {
		l.Release()
	}
	n := testing.AllocsPerRun(200, func() {
		a := p.Get(64)
		b := p.GetMasked(64)
		c := b.Writable() // sole owner: no copy
		c.Release()
		a.Release()
	})
	if n != 0 {
		t.Fatalf("steady-state Get/Release allocates %.1f/op", n)
	}
}

// TestChunkCarvedSnapshotRestore: lines carved from the pool's chunks —
// several chunks' worth, half of them masked — restore into the same
// objects with their own contents, and a line's payload and mask stay
// within their own slice of the chunk: filling one never writes into a
// neighbour.
func TestChunkCarvedSnapshotRestore(t *testing.T) {
	const size = 16
	p := NewLinePool(size)
	p.EnableTracking()
	n := 2*chunkLines + 3
	lines := make([]*Line, n)
	for i := range lines {
		if i%2 == 0 {
			lines[i] = p.GetMasked(size)
			lines[i].Mask()[i%size] = true
		} else {
			lines[i] = p.Get(size)
		}
		if cap(lines[i].Data) != size {
			t.Fatalf("line %d: payload capacity %d, want %d", i, cap(lines[i].Data), size)
		}
		for j := range lines[i].Data {
			lines[i].Data[j] = byte(i)
		}
	}
	for i := 0; i < n; i += 3 {
		lines[i].Release()
	}
	s := p.Snapshot()

	// Diverge: fill every line whole (payload and a full mask), recycle
	// the rest, and carve new lines past the snapshot.
	for i, l := range lines {
		if l.Refs() == 0 {
			continue
		}
		for j := range l.Data {
			l.Data[j] = 0xff
		}
		for j := range l.ensureMask() {
			l.mask[j] = true
		}
		if i%3 == 1 {
			l.Release()
		}
	}
	for i := 0; i < chunkLines+1; i++ {
		p.GetMasked(size).Data[0] = 0xee
	}

	p.Restore(s)
	for i, l := range lines {
		want := 1
		if i%3 == 0 {
			want = 0
		}
		if l.Refs() != want {
			t.Fatalf("line %d: refs %d after restore, want %d", i, l.Refs(), want)
		}
		for j, b := range l.Data {
			if b != byte(i) {
				t.Fatalf("line %d byte %d = %#x after restore, want %#x", i, j, b, byte(i))
			}
		}
		if masked := i%2 == 0 && want == 1; (l.Mask() != nil) != masked {
			t.Fatalf("line %d: masked %v after restore, want %v", i, l.Mask() != nil, masked)
		}
		for j, m := range l.Mask() {
			if m != (j == i%size) {
				t.Fatalf("line %d mask byte %d = %v after restore", i, j, m)
			}
		}
	}
	// The lines carved after the snapshot come back zeroed, below the
	// snapshot's free order.
	for i := 0; i < chunkLines+1+(n+2)/3; i++ {
		l := p.Get(size)
		if i < (n+2)/3 {
			if l != lines[3*((n+2)/3-1-i)] {
				t.Fatalf("Get %d after restore did not replay the snapshot's free order", i)
			}
			continue
		}
		for _, b := range l.Data {
			if b != 0 {
				t.Fatalf("a line carved after the snapshot came back holding %#x", b)
			}
		}
	}
}

// TestCarveAllocs: the pool grows by the chunk, not by the line.
// Carving four chunks of masked lines takes 20 objects (the registry's
// growth among them); it took three a line when each line, payload and
// mask was its own allocation.
func TestCarveAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		p := NewLinePool(64)
		for i := 0; i < 4*chunkLines; i++ {
			p.GetMasked(64)
		}
	})
	t.Logf("%.0f objects for %d masked lines", allocs, 4*chunkLines)
	if allocs > 32 {
		t.Fatalf("carving %d masked lines allocated %.0f objects, want ≤ 32", 4*chunkLines, allocs)
	}
}
