// Package mem defines the memory primitives shared by every level of
// the simulated hierarchy: addresses, operation kinds, request and
// response messages, the port interfaces components use to exchange
// them, and a sparse functional backing store.
//
// The vocabulary deliberately mirrors the paper's: loads and stores
// access data variables; atomics (fetch-add) access synchronization
// variables and may carry acquire and/or release semantics, which is
// exactly the DRF interface the tester exercises.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Addr is a physical byte address.
type Addr uint64

// WordSize is the size in bytes of every tester variable and of all
// word-granularity helpers in this package.
const WordSize = 4

// LineAddr returns the address of the cache line containing a, for a
// power-of-two line size.
func LineAddr(a Addr, lineSize int) Addr {
	return a &^ Addr(lineSize-1)
}

// LineOffset returns a's byte offset within its cache line.
func LineOffset(a Addr, lineSize int) int {
	return int(a & Addr(lineSize-1))
}

// Op enumerates the request kinds a core (or tester) can issue.
type Op uint8

const (
	// OpLoad reads WordSize bytes.
	OpLoad Op = iota
	// OpStore writes WordSize bytes (write-through in VIPER).
	OpStore
	// OpAtomic is an atomic fetch-add of the request's Operand on a
	// WordSize word; the response carries the old value.
	OpAtomic
)

func (o Op) String() string {
	switch o {
	case OpLoad:
		return "LD"
	case OpStore:
		return "ST"
	case OpAtomic:
		return "AT"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Request is a memory request message. Requests flow core → L1 → L2 →
// directory/memory; the same struct is reused at every level with the
// identity fields preserved so failure reports can name the issuing
// thread, wavefront and episode (Table V in the paper).
type Request struct {
	ID   uint64
	Op   Op
	Addr Addr
	// Data holds the store value for OpStore.
	Data uint32
	// Operand is the fetch-add amount for OpAtomic.
	Operand uint32
	// Acquire gives the request load-acquire semantics: on completion
	// the issuing core's L1 is flash-invalidated so subsequent loads
	// cannot observe stale data.
	Acquire bool
	// Release gives the request store-release semantics: it is not
	// issued until all of the thread's prior write-throughs have
	// completed, making them globally visible first.
	Release bool

	// Identity of the issuer, for logs and failure reports.
	ThreadID  int
	WFID      int
	EpisodeID uint64
	CUID      int

	// IssueTick is stamped by the sequencer when the request enters the
	// memory system; the forward-progress checker scans it.
	IssueTick uint64
}

func (r *Request) String() string {
	return fmt.Sprintf("%s addr=%#x thr=%d wf=%d eps=%d", r.Op, uint64(r.Addr), r.ThreadID, r.WFID, r.EpisodeID)
}

// Response answers a Request. Data is the loaded word for OpLoad and
// the old (pre-add) value for OpAtomic.
type Response struct {
	Req  *Request
	Data uint32
	// Tick is the completion time.
	Tick uint64
}

// Requestor is the core-side endpoint: it receives responses for the
// requests it issued. Sequencers and CPU caches take a Requestor as
// their client; the testers and core models implement it.
//
// The *Response is only valid for the duration of the HandleResponse
// call: producers may reuse the backing struct for the next delivery.
// Implementations must copy any fields they need to retain.
type Requestor interface {
	HandleResponse(resp *Response)
}

// Store is a sparse functional backing memory. It is used both as the
// DRAM contents behind the protocol stack and as the reference memory
// the tester checks responses against. Uninitialized bytes read as
// zero.
//
// The store sits on every DRAM access and every tester verify, so page
// resolution is built to do zero map hashes on the common path: a
// single-entry last-page cache catches the run of accesses that stay
// within one page, a two-level chunked directory covers the low
// address range with two slice indexes, and only pages beyond the
// directory's reach fall back to a map. All three tiers hold the same
// page buffers, so semantics — byte-exact contents, zero-fill
// first-touch reads, page-granular footprint — are identical to the
// original all-map store.
type Store struct {
	// lastPN/lastPE cache the most recently resolved page entry; lastPE
	// is nil when nothing has been resolved yet.
	lastPN Addr
	lastPE *pageEntry

	// dir is the chunked page directory for page numbers <
	// dirCapPages: dir[pn>>chunkShift][pn&(chunkPages-1)] is the
	// entry, data==nil when absent. Chunks are allocated on first
	// touch of their 1 MiB window, so a workload whose regions are
	// scattered across the range pays entries only for the windows it
	// actually uses — a flat directory here costs a megabyte of
	// GC-scanned pointers per Store the moment one high page is
	// touched. Entry addresses are stable once a chunk exists, which
	// is what lets snapshots hold *pageEntry references.
	dir [][]pageEntry

	// far holds the sparse pages beyond the directory's range.
	far map[Addr]*pageEntry

	// pages lists every live entry in birth order, so Snapshot
	// enumerates O(touched) pages instead of scanning the directory.
	pages []*pageEntry

	// touched counts allocated pages across dir and far (Footprint).
	touched int

	// free recycles the page buffers Reset and Restore release;
	// page-creating paths draw from it before allocating, so a store
	// reused across campaign runs or rewound by an explorer reaches a
	// no-allocation steady state.
	free [][]byte

	// epoch is the current write epoch; an entry whose epoch lags it is
	// copied (COW) before its next write while a snapshot is armed.
	// Every SnapshotInto and every full reinstall advances it, so an
	// entry at the current epoch was born or copied after the last of
	// them and its buffer is private: no snapshot's entries or journal
	// can hold it (see private). snap is the armed snapshot the write
	// path journals into; snapped records that a snapshot was ever
	// taken, after which a lagging entry's buffer may be shared with one
	// and is left to the GC instead of the free list.
	epoch   uint64
	snap    *StoreSnapshot
	snapped bool
}

// pageEntry is one page slot: the buffer, the write epoch its contents
// belong to, and its page number (so restores can fix the far map).
type pageEntry struct {
	data  []byte
	epoch uint64
	pn    Addr
}

const pageShift = 12
const pageSize = 1 << pageShift

// chunkShift sizes a directory chunk: 256 pages = 1 MiB of address
// space per chunk, 2 KiB of pointers when touched.
const chunkShift = 8
const chunkPages = 1 << chunkShift

// dirCapPages bounds the directory: pages below this number (a
// 512 MiB address range) resolve with two slice indexes; pages above
// it live in the fallback map. The top level is at most
// dirCapPages/chunkPages entries (512 pointers, 4 KiB), grown by
// doubling.
const dirCapPages = 1 << 17

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{}
}

// Reset drops all contents: every byte reads as zero again and
// Footprint restarts at 0, exactly as if freshly constructed. The
// directory skeleton (top level and touched chunks) is kept, and page
// buffers are parked on a free list for newPage to recycle, so the
// first-touch semantics are preserved without first-touch allocations.
//
// Once a snapshot has ever been taken, a released buffer that is not
// private may be shared with that snapshot, so it is left to the GC
// instead of the free list, and any armed snapshot is disarmed (a later
// Restore of it takes the full-reinstall path).
func (s *Store) Reset() {
	s.lastPN, s.lastPE = 0, nil
	s.dropPages()
	s.touched = 0
	s.snap = nil
}

// private reports whether no snapshot can hold e's buffer: none was
// ever taken, or e is at the current epoch — born or copied after the
// last SnapshotInto or reinstall, the only places a snapshot's entries
// are filled or re-linked. (A journal holds only pre-copy buffers,
// which lagged when they were journaled.)
func (s *Store) private(e *pageEntry) bool { return !s.snapped || e.epoch == s.epoch }

// dropPages empties the live page set, recycling the private buffers.
func (s *Store) dropPages() {
	for _, e := range s.pages {
		if s.private(e) {
			s.free = append(s.free, e.data)
		}
		if e.pn >= dirCapPages {
			delete(s.far, e.pn)
		}
		e.data = nil
		e.epoch = 0
	}
	s.pages = s.pages[:0]
}

// rawPage returns a page buffer of arbitrary contents, recycling a
// released one when available.
func (s *Store) rawPage() []byte {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return p
	}
	return make([]byte, pageSize)
}

// newPage returns a zeroed page buffer.
func (s *Store) newPage() []byte {
	recycled := len(s.free) > 0
	p := s.rawPage()
	if recycled {
		clear(p)
	}
	return p
}

// page resolves the page containing a for reading and returns its
// buffer (nil when absent) plus a's offset within it. Read resolution
// never allocates, never copies, and never touches epochs.
func (s *Store) page(a Addr) ([]byte, int) {
	pn := a >> pageShift
	off := int(a & (pageSize - 1))
	if s.lastPE != nil && pn == s.lastPN {
		return s.lastPE.data, off
	}
	e := s.lookup(pn)
	if e == nil {
		return nil, off
	}
	s.lastPN, s.lastPE = pn, e
	return e.data, off
}

// pageW resolves the page containing a for writing, allocating it on
// first touch and copying it out of an armed snapshot when its epoch
// lags the store's, and returns the (now privately owned) buffer plus
// a's offset within it.
func (s *Store) pageW(a Addr) ([]byte, int) {
	pn := a >> pageShift
	off := int(a & (pageSize - 1))
	if s.lastPE != nil && pn == s.lastPN {
		e := s.lastPE
		if e.epoch != s.epoch {
			s.cow(e)
		}
		return e.data, off
	}
	e := s.lookup(pn)
	if e == nil {
		e = s.birth(pn)
	} else if e.epoch != s.epoch {
		s.cow(e)
	}
	s.lastPN, s.lastPE = pn, e
	return e.data, off
}

// lookup finds page pn's live entry, or nil when the page is absent.
func (s *Store) lookup(pn Addr) *pageEntry {
	if pn < dirCapPages {
		ci := pn >> chunkShift
		if ci < Addr(len(s.dir)) && s.dir[ci] != nil {
			if e := &s.dir[ci][pn&(chunkPages-1)]; e.data != nil {
				return e
			}
		}
		return nil
	}
	return s.far[pn]
}

// birth allocates page pn: a directory slot (growing the top level by
// doubling and allocating the chunk on first touch) or a far-map
// entry. The new page is stamped with the current epoch and journaled
// into the armed snapshot so Restore can drop it again.
func (s *Store) birth(pn Addr) *pageEntry {
	var e *pageEntry
	if pn < dirCapPages {
		ci := pn >> chunkShift
		if ci >= Addr(len(s.dir)) {
			n := len(s.dir)
			if n == 0 {
				n = 8
			}
			for Addr(n) <= ci {
				n *= 2
			}
			grown := make([][]pageEntry, n)
			copy(grown, s.dir)
			s.dir = grown
		}
		if s.dir[ci] == nil {
			s.dir[ci] = make([]pageEntry, chunkPages)
		}
		e = &s.dir[ci][pn&(chunkPages-1)]
	} else {
		if s.far == nil {
			s.far = make(map[Addr]*pageEntry)
		}
		e = &pageEntry{}
		s.far[pn] = e
	}
	e.data = s.newPage()
	e.epoch = s.epoch
	e.pn = pn
	s.pages = append(s.pages, e)
	s.touched++
	if s.snap != nil {
		s.snap.journal = append(s.snap.journal, storeUndo{e: e, birth: true})
	}
	return e
}

// cow makes e's buffer privately writable at the current epoch. While
// a snapshot is armed, the old buffer (which the snapshot may share)
// is journaled and replaced by a fresh copy; otherwise only the epoch
// is brought current.
func (s *Store) cow(e *pageEntry) {
	if s.snap != nil {
		s.snap.journal = append(s.snap.journal, storeUndo{e: e, oldData: e.data, oldEpoch: e.epoch})
		buf := s.rawPage() // wholly overwritten
		copy(buf, e.data)
		e.data = buf
	}
	e.epoch = s.epoch
}

// ByteAt returns the byte at a.
func (s *Store) ByteAt(a Addr) byte {
	p, off := s.page(a)
	if p == nil {
		return 0
	}
	return p[off]
}

// SetByte sets the byte at a.
func (s *Store) SetByte(a Addr, v byte) {
	p, off := s.pageW(a)
	p[off] = v
}

// ReadBytes fills dst starting at a. The span may straddle any number
// of page boundaries; absent pages read as zero without being
// allocated.
func (s *Store) ReadBytes(a Addr, dst []byte) {
	for len(dst) > 0 {
		p, off := s.page(a)
		n := pageSize - off
		if n > len(dst) {
			n = len(dst)
		}
		if p == nil {
			clear(dst[:n])
		} else {
			copy(dst[:n], p[off:off+n])
		}
		a += Addr(n)
		dst = dst[n:]
	}
}

// WriteBytes writes src starting at a, honoring mask when non-nil
// (mask[i] false skips byte i). Per-byte masks are how VIPER's
// write-through merging is modelled. A page is only allocated when at
// least one byte is actually written into it, so fully masked-off
// spans leave the footprint unchanged.
func (s *Store) WriteBytes(a Addr, src []byte, mask []bool) {
	for len(src) > 0 {
		off := int(a & (pageSize - 1))
		n := pageSize - off
		if n > len(src) {
			n = len(src)
		}
		if mask == nil {
			p, off := s.pageW(a)
			copy(p[off:off+n], src[:n])
		} else {
			s.writeMasked(a, src[:n], mask[:n])
			mask = mask[n:]
		}
		a += Addr(n)
		src = src[n:]
	}
}

// writeMasked writes one within-page span under its mask, allocating
// the page only if some byte is enabled.
func (s *Store) writeMasked(a Addr, src []byte, mask []bool) {
	any := false
	for _, m := range mask {
		if m {
			any = true
			break
		}
	}
	if !any {
		return
	}
	p, off := s.pageW(a)
	for i := range src {
		if mask[i] {
			p[off+i] = src[i]
		}
	}
}

// ReadWord reads the little-endian 32-bit word at a.
func (s *Store) ReadWord(a Addr) uint32 {
	var b [WordSize]byte
	s.ReadBytes(a, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteWord writes the little-endian 32-bit word v at a.
func (s *Store) WriteWord(a Addr, v uint32) {
	var b [WordSize]byte
	binary.LittleEndian.PutUint32(b[:], v)
	s.WriteBytes(a, b[:], nil)
}

// AtomicAdd performs a fetch-add of delta on the word at a and returns
// the old value.
func (s *Store) AtomicAdd(a Addr, delta uint32) uint32 {
	old := s.ReadWord(a)
	s.WriteWord(a, old+delta)
	return old
}

// Footprint returns the number of distinct pages touched, a cheap
// proxy for an application's memory footprint.
func (s *Store) Footprint() int { return s.touched }

// StoreSnapshot captures a Store's contents at one instant. Taking one
// is O(touched pages) in pointers — no page data is copied up front;
// instead the store's write path copies a page out the first time it
// is written after the snapshot (copy-on-write), journaling the
// original buffer here so Restore of the most recent snapshot is
// O(pages touched since the snapshot).
type StoreSnapshot struct {
	// entries records every live page at snapshot time with the buffer
	// it then held. The buffers are shared with the store but COW
	// guarantees they are never mutated afterwards.
	entries []storeSave
	// journal records, in order, each post-snapshot page birth and
	// first-write copy while this snapshot is the armed one; Restore
	// undoes it in reverse.
	journal []storeUndo
	touched int
}

type storeSave struct {
	e    *pageEntry
	data []byte
}

type storeUndo struct {
	e        *pageEntry
	oldData  []byte // nil for births
	oldEpoch uint64
	birth    bool
}

// Snapshot captures the store's current contents and arms
// copy-on-write against them. The returned snapshot stays valid
// indefinitely (across later snapshots, restores, and resets); only
// the most recently armed snapshot gets the cheap journal-undo
// Restore path.
func (s *Store) Snapshot() *StoreSnapshot { return s.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling snap, a snapshot of this store
// the caller knows is dead (nil allocates). A dead snapshot may still
// be the armed one; refilling re-arms it against the new contents.
func (s *Store) SnapshotInto(snap *StoreSnapshot) *StoreSnapshot {
	if snap == nil {
		snap = &StoreSnapshot{entries: make([]storeSave, 0, len(s.pages))}
	}
	snap.entries, snap.journal, snap.touched = snap.entries[:0], snap.journal[:0], s.touched
	for _, e := range s.pages {
		snap.entries = append(snap.entries, storeSave{e: e, data: e.data})
	}
	s.snap = snap
	s.snapped = true
	s.epoch++ // every live entry now lags → first write per page COWs
	return snap
}

// Restore returns the store to the exact contents captured by snap.
// Restoring the most recently armed snapshot undoes its journal —
// O(pages touched since Snapshot). Restoring an older snapshot (or
// one from before a Reset) reinstalls its page set outright and
// re-arms it, still O(touched pages) with no data copying. Either
// way snap remains valid and can be restored again.
func (s *Store) Restore(snap *StoreSnapshot) {
	s.lastPN, s.lastPE = 0, nil
	if s.snap == snap {
		for i := len(snap.journal) - 1; i >= 0; i-- {
			u := snap.journal[i]
			if u.birth {
				if u.e.pn >= dirCapPages {
					delete(s.far, u.e.pn)
				}
				s.free = append(s.free, u.e.data)
				u.e.data = nil
				u.e.epoch = 0
			} else {
				// The post-copy buffer is private to the store — no
				// snapshot references it — so it can be recycled.
				s.free = append(s.free, u.e.data)
				u.e.data = u.oldData
				u.e.epoch = u.oldEpoch
			}
		}
		snap.journal = snap.journal[:0]
		s.pages = s.pages[:len(snap.entries)]
		s.touched = snap.touched
		return
	}
	// Full reinstall: drop the current page set, then re-link the
	// snapshot's entries with their saved buffers. A current buffer that
	// is not private may be shared with some snapshot, so it goes to the
	// GC, not the free list. Entry epochs are zeroed below the new armed
	// epoch so every future write copies before touching a
	// snapshot-owned buffer.
	s.dropPages()
	for _, sv := range snap.entries {
		e := sv.e
		e.data = sv.data
		e.epoch = 0
		if e.pn >= dirCapPages {
			if s.far == nil {
				s.far = make(map[Addr]*pageEntry)
			}
			s.far[e.pn] = e
		}
		s.pages = append(s.pages, e)
	}
	s.touched = snap.touched
	snap.journal = snap.journal[:0]
	s.snap = snap
	s.epoch++
}
