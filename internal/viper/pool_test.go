package viper

import "testing"

// TestObjPoolChunkCarvedCut: objects carved from the pool's chunks —
// several chunks' worth — restore into the same objects with their own
// contents and free order, and the objects built after the cut are
// cleaned and freed. A chunk's objects are distinct: writing one
// never shows in its neighbour.
func TestObjPoolChunkCarvedCut(t *testing.T) {
	p := objPool[tcpMsg]{track: true}
	n := 2*objChunk + 5
	objs := make([]*tcpMsg, n)
	for i := range objs {
		objs[i] = p.get()
		objs[i].cu = i
	}
	for i := 0; i < n; i += 4 {
		p.put(objs[i])
	}
	var cut poolCut[tcpMsg]
	p.save(&cut)

	for _, x := range objs {
		x.cu, x.off = -1, 7
	}
	for i := 0; i < len(cut.free)+objChunk+1; i++ {
		p.get().cu = -2 // the free objects, then a chunk and one more
	}
	p.load(&cut)
	for i, x := range objs {
		want := i
		if i%4 == 0 {
			want = 0
		}
		if x.cu != want || x.off != 0 {
			t.Fatalf("object %d: cu %d off %d after the restore, want %d and 0", i, x.cu, x.off, want)
		}
	}
	// The objects built after the cut come back first, cleaned, then
	// the cut's free order replays.
	for i := 0; i < objChunk+1; i++ {
		if x := p.get(); x.cu != 0 || x.off != 0 {
			t.Fatalf("an object built after the cut came back holding cu %d off %d", x.cu, x.off)
		}
	}
	for i := n - 1 - (n-1)%4; i >= 0; i -= 4 {
		if x := p.get(); x != objs[i] {
			t.Fatalf("get after the restore did not replay the free order at object %d", i)
		}
	}
}

// TestObjPoolCarveAllocs: the pool grows by the chunk, not by the
// object.
func TestObjPoolCarveAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		var p objPool[tccMsg]
		for i := 0; i < 4*objChunk; i++ {
			p.get()
		}
	})
	if allocs > 4 {
		t.Fatalf("building %d messages allocated %.0f objects, want ≤ 4", 4*objChunk, allocs)
	}
}
