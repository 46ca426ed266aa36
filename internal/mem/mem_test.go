package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLineAddrAndOffset(t *testing.T) {
	err := quick.Check(func(aRaw uint64, szExp uint8) bool {
		lineSize := 1 << (4 + szExp%6) // 16..512
		a := Addr(aRaw)
		line := LineAddr(a, lineSize)
		off := LineOffset(a, lineSize)
		return line%Addr(lineSize) == 0 &&
			off >= 0 && off < lineSize &&
			line+Addr(off) == a
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStoreZeroFill(t *testing.T) {
	s := NewStore()
	if s.ReadWord(0x1234) != 0 {
		t.Fatal("fresh store not zero-filled")
	}
}

func TestStoreWordRoundTrip(t *testing.T) {
	s := NewStore()
	err := quick.Check(func(aRaw uint32, v uint32) bool {
		a := Addr(aRaw) &^ 3
		s.WriteWord(a, v)
		return s.ReadWord(a) == v
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStoreMaskedWrite(t *testing.T) {
	s := NewStore()
	base := Addr(0x100)
	s.WriteBytes(base, []byte{1, 2, 3, 4}, nil)
	s.WriteBytes(base, []byte{9, 9, 9, 9}, []bool{false, true, false, true})
	var got [4]byte
	s.ReadBytes(base, got[:])
	if got != [4]byte{1, 9, 3, 9} {
		t.Fatalf("masked write produced %v", got)
	}
}

func TestStoreAtomicAdd(t *testing.T) {
	s := NewStore()
	a := Addr(0x40)
	for i := uint32(0); i < 10; i++ {
		if old := s.AtomicAdd(a, 3); old != i*3 {
			t.Fatalf("AtomicAdd returned %d, want %d", old, i*3)
		}
	}
	if s.ReadWord(a) != 30 {
		t.Fatalf("final value %d, want 30", s.ReadWord(a))
	}
}

func TestStoreCrossPage(t *testing.T) {
	s := NewStore()
	a := Addr(pageSize - 2) // straddles a page boundary
	s.WriteWord(a, 0xAABBCCDD)
	if s.ReadWord(a) != 0xAABBCCDD {
		t.Fatal("cross-page word write corrupted")
	}
	if s.Footprint() != 2 {
		t.Fatalf("footprint %d, want 2 pages", s.Footprint())
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{OpLoad: "LD", OpStore: "ST", OpAtomic: "AT"} {
		if op.String() != want {
			t.Errorf("%v.String() = %q", uint8(op), op.String())
		}
	}
}

func TestRequestString(t *testing.T) {
	r := &Request{Op: OpStore, Addr: 0x52860, ThreadID: 12, WFID: 2, EpisodeID: 652}
	want := "ST addr=0x52860 thr=12 wf=2 eps=652"
	if r.String() != want {
		t.Fatalf("Request.String() = %q, want %q", r.String(), want)
	}
}

// TestStoreStraddlingPageBoundarySpans exercises multi-page ReadBytes
// and WriteBytes spans, masked and unmasked, across the directory's
// page seams.
func TestStoreStraddlingPageBoundarySpans(t *testing.T) {
	s := NewStore()
	base := Addr(3*pageSize - 5) // span covers pages 2, 3 and 4
	src := make([]byte, 2*pageSize+10)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	s.WriteBytes(base, src, nil)
	got := make([]byte, len(src))
	s.ReadBytes(base, got)
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("byte %d: got %d want %d", i, got[i], src[i])
		}
	}
	if s.Footprint() != 4 { // [3P-5, 5P+5) touches pages 2, 3, 4 and 5
		t.Fatalf("footprint %d, want 4 pages", s.Footprint())
	}

	// A masked write straddling the same boundary only lands where the
	// mask allows.
	mask := make([]bool, len(src))
	repl := make([]byte, len(src))
	for i := range repl {
		repl[i] = 0xEE
		mask[i] = i%3 == 0
	}
	s.WriteBytes(base, repl, mask)
	s.ReadBytes(base, got)
	for i := range src {
		want := src[i]
		if i%3 == 0 {
			want = 0xEE
		}
		if got[i] != want {
			t.Fatalf("masked byte %d: got %d want %d", i, got[i], want)
		}
	}
}

// TestStoreFirstTouchReadsAllocateNothing pins the zero-fill contract:
// reads of untouched memory return zeroes and never create pages, in
// every tier (directory range, far range, page-straddling spans).
func TestStoreFirstTouchReadsAllocateNothing(t *testing.T) {
	s := NewStore()
	farAddr := Addr(dirCapPages+5) << pageShift
	buf := make([]byte, 3*pageSize)
	for _, a := range []Addr{0, pageSize - 2, farAddr, farAddr + pageSize - 2} {
		s.ReadBytes(a, buf)
		for i, b := range buf {
			if b != 0 {
				t.Fatalf("untouched read at %#x byte %d = %d", uint64(a), i, b)
			}
		}
		if s.ByteAt(a) != 0 || s.ReadWord(a&^3) != 0 {
			t.Fatalf("untouched scalar read at %#x nonzero", uint64(a))
		}
	}
	if s.Footprint() != 0 {
		t.Fatalf("reads allocated %d pages", s.Footprint())
	}
	// Fully masked-off writes must not allocate either.
	s.WriteBytes(farAddr, []byte{1, 2, 3, 4}, []bool{false, false, false, false})
	if s.Footprint() != 0 {
		t.Fatalf("masked-off write allocated %d pages", s.Footprint())
	}
}

// TestStoreNearFarInterleaving hammers the last-page cache with
// alternating near (directory) and far (map) pages: every switch must
// invalidate the cached page, never serve stale bytes.
func TestStoreNearFarInterleaving(t *testing.T) {
	s := NewStore()
	near := Addr(2 * pageSize)
	far := Addr(dirCapPages+99) << pageShift
	far2 := far + 4*pageSize
	addrs := []Addr{near, far, near + pageSize, far2, near + 2*pageSize, far + pageSize}
	for round := 0; round < 4; round++ {
		for i, a := range addrs {
			v := uint32(round*100 + i + 1)
			s.WriteWord(a+Addr(4*round), v)
			if got := s.ReadWord(a + Addr(4*round)); got != v {
				t.Fatalf("round %d addr %#x: got %d want %d", round, uint64(a), got, v)
			}
		}
		// Re-read every earlier value through the cache-thrashing mix.
		for i, a := range addrs {
			v := uint32(round*100 + i + 1)
			if got := s.ReadWord(a + Addr(4*round)); got != v {
				t.Fatalf("round %d reread addr %#x: got %d want %d", round, uint64(a), got, v)
			}
		}
	}
	if s.Footprint() != 6 {
		t.Fatalf("footprint %d, want 6", s.Footprint())
	}
}

// TestStoreFarPagesUseMap pins the tiering: far pages must not grow
// the flat directory.
func TestStoreFarPagesUseMap(t *testing.T) {
	s := NewStore()
	s.WriteWord(Addr(dirCapPages)<<pageShift, 7)
	if len(s.dir) != 0 {
		t.Fatalf("far write grew the directory to %d entries", len(s.dir))
	}
	if len(s.far) != 1 {
		t.Fatalf("far map holds %d pages, want 1", len(s.far))
	}
	s.WriteWord(0, 9)
	if len(s.dir) == 0 {
		t.Fatal("near write did not populate the directory")
	}
	if s.ReadWord(Addr(dirCapPages)<<pageShift) != 7 || s.ReadWord(0) != 9 {
		t.Fatal("tier mixup corrupted values")
	}
}

// TestStoreAccessZeroAllocs pins the O(1) hot path: once a page
// exists, word reads/writes, line reads/writes and atomics allocate
// nothing — in the last-page-cache regime and in the page-alternating
// regime.
func TestStoreAccessZeroAllocs(t *testing.T) {
	s := NewStore()
	line := make([]byte, 64)
	s.WriteWord(0x40, 1)
	s.WriteWord(pageSize+0x40, 1) // both pages exist
	if n := testing.AllocsPerRun(200, func() {
		s.WriteWord(0x40, 3)
		_ = s.ReadWord(0x40)
		_ = s.AtomicAdd(0x40, 1)
		s.ReadBytes(0x00, line)
		s.WriteBytes(0x00, line, nil)
		// alternate pages to defeat-then-refill the last-page cache
		_ = s.ReadWord(pageSize + 0x40)
		_ = s.ReadWord(0x40)
	}); n != 0 {
		t.Fatalf("hot-path store access allocates %v allocs/op, want 0", n)
	}
}

// TestStoreRecycledPagesPoisoned runs random write / snapshot / restore
// / reset programs against full byte images and scribbles over every
// buffer on the free list after each step: a buffer recycled while a
// snapshot could still reach it shows the poison when that snapshot is
// restored, and every held snapshot is restored and compared at the
// end of each program.
func TestStoreRecycledPagesPoisoned(t *testing.T) {
	pns := []Addr{0, 1, 2, 3, 300, 301, dirCapPages + 5}
	image := func(s *Store) []byte {
		img := make([]byte, len(pns)*pageSize)
		for i, pn := range pns {
			s.ReadBytes(pn<<pageShift, img[i*pageSize:(i+1)*pageSize])
		}
		return img
	}
	type held struct {
		snap *StoreSnapshot
		want []byte
	}
	recycled := 0
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		var snaps [4]*held
		poison := func() {
			for _, p := range s.free {
				for i := range p {
					p[i] = 0xA5
				}
			}
		}
		restore := func(h *held, at string) {
			t.Helper()
			before, armed := len(s.free), s.snap == h.snap
			s.Restore(h.snap)
			if !armed {
				recycled += len(s.free) - before
			}
			poison()
			if got := image(s); !bytes.Equal(got, h.want) {
				t.Fatalf("seed %d: %s: restored bytes differ from the snapshot's", seed, at)
			}
		}
		for step := 0; step < 400; step++ {
			switch op := r.Intn(16); {
			case op < 10:
				a := pns[r.Intn(len(pns))]<<pageShift + Addr(r.Intn(pageSize/WordSize)*WordSize)
				s.WriteWord(a, r.Uint32()|1)
			case op < 13: // snapshot, into a dead one half the time
				k := r.Intn(len(snaps))
				var dead *StoreSnapshot
				if snaps[k] != nil && r.Intn(2) == 0 {
					dead = snaps[k].snap
				}
				snaps[k] = &held{want: image(s)}
				snaps[k].snap = s.SnapshotInto(dead)
			case op < 15: // armed or not, whichever it is
				if h := snaps[r.Intn(len(snaps))]; h != nil {
					restore(h, fmt.Sprintf("step %d", step))
				}
			default:
				if r.Intn(4) == 0 {
					s.Reset()
					poison()
				}
			}
		}
		for k, h := range snaps {
			if h != nil {
				restore(h, fmt.Sprintf("final restore of snapshot %d", k))
			}
		}
	}
	if recycled == 0 {
		t.Fatal("no full reinstall recycled a buffer: the test poisoned nothing new")
	}
}
