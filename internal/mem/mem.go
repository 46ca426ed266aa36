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
	"slices"
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
//
// The *Request it answers works the other way round: the memory system
// holds it from issue until its response is delivered and reads nothing
// of it afterwards, so once HandleResponse returns the issuer may
// reuse it for its next request (the GPU tester, the application
// workloads and the CPU tester each issue a lane's or a core's requests
// from one struct).
type Requestor interface {
	HandleResponse(resp *Response)
}

// Store is a sparse functional backing memory. It is used both as the
// DRAM contents behind the protocol stack and as the reference memory
// the tester checks responses against. Uninitialized bytes read as
// zero.
//
// A page is 4 KB of sixteen 256-byte blocks. The page is the unit of
// allocation, lookup and snapshot; the block is the unit of
// copy-on-write, so a rewound run's first write to a page copies
// 256 bytes, not 4 KB.
//
// The store sits on every DRAM access and every tester verify, so page
// resolution is built to do zero map hashes on the common path: a
// single-entry last-page cache catches the run of accesses that stay
// within one page, a two-level chunked directory covers the low
// address range with two slice indexes, and only pages beyond the
// directory's reach fall back to a map. All three tiers hold the same
// page entries, so semantics — byte-exact contents, zero-fill
// first-touch reads, page-granular footprint — are identical to the
// original all-map store.
type Store struct {
	// lastPN/lastPE cache the most recently resolved page entry; lastPE
	// is nil when nothing has been resolved yet.
	lastPN Addr
	lastPE *pageEntry

	// dir is the chunked page directory for page numbers <
	// dirCapPages: dir[pn>>chunkShift][pn&(chunkPages-1)] is the
	// entry, absent while it holds no blocks. Chunks are allocated on
	// first touch of their 1 MiB window, so a workload whose regions are
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

	// free recycles the blocks Reset and Restore release; block-creating
	// paths draw from it before allocating, so a store reused across
	// campaign runs or rewound by an explorer reaches a no-allocation
	// steady state.
	free []*block

	// epoch is the current write epoch. A block is private — no
	// snapshot's entries or journal can hold it — when it was born or
	// copied at the current epoch (see private), and a write to a block
	// that is not copies it (COW) while a snapshot is armed. Every
	// SnapshotInto and every full reinstall advances the epoch. snap is
	// the armed snapshot the write path journals into; snapped records
	// that a snapshot was ever taken, after which a block that is not
	// private may be shared with one and is left to the GC instead of
	// the free list.
	epoch   uint64
	snap    *StoreSnapshot
	snapped bool
}

// block is one copy-on-write unit of a page.
type block [blockSize]byte

// pageEntry is one page slot: the page's block table, which of its
// blocks are private at epoch, and its page number (so restores can fix
// the far map). A page that lags the store's epoch has no private
// block. The table is allocated with the entry's first blocks and kept
// when the page is dropped (its slots cleared), so an entry stays small
// in the directory.
type pageEntry struct {
	blocks *[pageBlocks]*block
	epoch  uint64
	priv   uint16
	pn     Addr
}

// pageAlloc is a block table allocated together with the page's first
// blocks: one allocation per page touched.
type pageAlloc struct {
	table  [pageBlocks]*block
	blocks [pageBlocks]block
}

const pageShift = 12
const pageSize = 1 << pageShift

const blockShift = 8
const blockSize = 1 << blockShift
const pageBlocks = pageSize / blockSize

// chunkShift sizes a directory chunk: 256 pages = 1 MiB of address
// space per chunk.
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
// directory skeleton (top level and touched chunks) is kept, and
// blocks are parked on a free list for newPage to recycle, so the
// first-touch semantics are preserved without first-touch allocations.
//
// Once a snapshot has ever been taken, a released block that is not
// private may be shared with that snapshot, so it is left to the GC
// instead of the free list, and any armed snapshot is disarmed (a later
// Restore of it takes the full-reinstall path).
func (s *Store) Reset() {
	s.lastPN, s.lastPE = 0, nil
	s.dropPages()
	s.touched = 0
	s.snap = nil
}

// private reports whether no snapshot can hold block b of e: none was
// ever taken, or the block was born or copied at the current epoch —
// after the last SnapshotInto or reinstall, the only places a
// snapshot's entries are filled or re-linked. (A journal holds only
// pre-copy blocks, which were not private when they were journaled.)
func (s *Store) private(e *pageEntry, b int) bool {
	return !s.snapped || e.epoch == s.epoch && e.priv>>b&1 != 0
}

// dropPages empties the live page set, recycling the private blocks.
func (s *Store) dropPages() {
	s.free = slices.Grow(s.free, len(s.pages)*pageBlocks)
	for _, e := range s.pages {
		for b, blk := range e.blocks {
			if s.private(e, b) {
				s.free = append(s.free, blk)
			}
		}
		if e.pn >= dirCapPages {
			delete(s.far, e.pn)
		}
		*e.blocks, e.epoch, e.priv = [pageBlocks]*block{}, 0, 0
	}
	s.pages = s.pages[:0]
}

// rawBlock returns a block of arbitrary contents, recycling a released
// one when available. Otherwise it carves a fresh page-sized slab into
// blocks and parks all but the one it returns on the free list.
func (s *Store) rawBlock() *block {
	if len(s.free) == 0 {
		slab := new([pageBlocks]block)
		s.free = slices.Grow(s.free, pageBlocks-1)
		for i := 1; i < pageBlocks; i++ {
			s.free = append(s.free, &slab[i])
		}
		return &slab[0]
	}
	n := len(s.free)
	b := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return b
}

// newPage fills e with zeroed blocks: on its first page, one
// allocation holding the table and the blocks; after that, recycled
// blocks when a page's worth is free, else one fresh 4 KB allocation.
func (s *Store) newPage(e *pageEntry) {
	if e.blocks == nil {
		p := new(pageAlloc)
		e.blocks = &p.table
		for i := range e.blocks {
			e.blocks[i] = &p.blocks[i]
		}
		return
	}
	if n := len(s.free); n >= pageBlocks {
		copy(e.blocks[:], s.free[n-pageBlocks:])
		clear(s.free[n-pageBlocks:])
		s.free = s.free[:n-pageBlocks]
		for _, b := range e.blocks {
			clear(b[:])
		}
		return
	}
	slab := new([pageBlocks]block)
	for i := range e.blocks {
		e.blocks[i] = &slab[i]
	}
}

// page resolves the block containing a for reading and returns it
// (nil when the page is absent) plus a's offset within it. Read
// resolution never allocates, never copies, and never touches epochs.
func (s *Store) page(a Addr) ([]byte, int) {
	pn := a >> pageShift
	b, off := int(a>>blockShift)&(pageBlocks-1), int(a&(blockSize-1))
	if s.lastPE != nil && pn == s.lastPN {
		return s.lastPE.blocks[b][:], off
	}
	e := s.lookup(pn)
	if e == nil {
		return nil, off
	}
	s.lastPN, s.lastPE = pn, e
	return e.blocks[b][:], off
}

// pageW resolves the block containing a for writing, allocating its
// page on first touch and copying the block out of an armed snapshot
// when it is not private, and returns the (now privately owned) block
// plus a's offset within it.
func (s *Store) pageW(a Addr) ([]byte, int) {
	pn := a >> pageShift
	b, off := int(a>>blockShift)&(pageBlocks-1), int(a&(blockSize-1))
	e := s.lastPE
	if e == nil || pn != s.lastPN {
		if e = s.lookup(pn); e == nil {
			e = s.birth(pn)
		}
		s.lastPN, s.lastPE = pn, e
	}
	if e.epoch != s.epoch || e.priv>>b&1 == 0 {
		s.cow(e, b)
	}
	return e.blocks[b][:], off
}

// lookup finds page pn's live entry, or nil when the page is absent.
func (s *Store) lookup(pn Addr) *pageEntry {
	if pn < dirCapPages {
		ci := pn >> chunkShift
		if ci < Addr(len(s.dir)) && s.dir[ci] != nil {
			if e := &s.dir[ci][pn&(chunkPages-1)]; e.blocks != nil && e.blocks[0] != nil {
				return e
			}
		}
		return nil
	}
	return s.far[pn]
}

// birth allocates page pn: a directory slot (growing the top level by
// doubling and allocating the chunk on first touch) or a far-map
// entry. The new page's blocks are private at the current epoch, and
// the birth is journaled into the armed snapshot so Restore can drop
// it again.
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
	s.newPage(e)
	e.epoch, e.priv, e.pn = s.epoch, 1<<pageBlocks-1, pn
	s.pages = append(s.pages, e)
	s.touched++
	if s.snap != nil {
		s.snap.journal = append(s.snap.journal, storeUndo{e: e, birth: true})
	}
	return e
}

// cow makes block b of e privately writable at the current epoch.
// While a snapshot is armed, the old block (which the snapshot may
// share) is journaled and replaced by a fresh copy; otherwise only the
// entry's epoch and private mask are brought current.
func (s *Store) cow(e *pageEntry, b int) {
	if s.snap != nil {
		s.snap.journal = append(s.snap.journal, storeUndo{e: e, b: b, old: e.blocks[b], oldEpoch: e.epoch, oldPriv: e.priv})
		nb := s.rawBlock() // wholly overwritten
		*nb = *e.blocks[b]
		e.blocks[b] = nb
	}
	if e.epoch != s.epoch {
		e.epoch, e.priv = s.epoch, 0
	}
	e.priv |= 1 << b
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
// of block and page boundaries; absent pages read as zero without
// being allocated.
func (s *Store) ReadBytes(a Addr, dst []byte) {
	for len(dst) > 0 {
		p, off := s.page(a)
		n := blockSize - off
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
// write-through merging is modelled. A page is only allocated, and a
// block only copied, when at least one byte is actually written into
// it, so fully masked-off spans leave the footprint unchanged.
func (s *Store) WriteBytes(a Addr, src []byte, mask []bool) {
	for len(src) > 0 {
		off := int(a & (blockSize - 1))
		n := blockSize - off
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

// writeMasked writes one within-block span under its mask, allocating
// the page or copying the block only if some byte is enabled.
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
// is O(touched pages) in pointers — no data is copied up front;
// instead the store's write path copies a block out the first time it
// is written after the snapshot (copy-on-write), journaling the
// original block here so Restore of the most recent snapshot is
// O(blocks written and pages born since the snapshot).
type StoreSnapshot struct {
	// entries records every live page at snapshot time with the blocks
	// it then held. The blocks are shared with the store but COW
	// guarantees they are never mutated afterwards.
	entries []storeSave
	// journal records, in order, each post-snapshot page birth and
	// first-write block copy while this snapshot is the armed one;
	// Restore undoes it in reverse.
	journal []storeUndo
	touched int
}

type storeSave struct {
	e      *pageEntry
	blocks [pageBlocks]*block
}

// storeUndo is one journaled change: a page birth, or block b's copy,
// with the block and the entry's epoch and private mask before it.
type storeUndo struct {
	e        *pageEntry
	birth    bool
	b        int
	old      *block
	oldEpoch uint64
	oldPriv  uint16
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
		snap.entries = append(snap.entries, storeSave{e: e, blocks: *e.blocks})
	}
	s.snap = snap
	s.snapped = true
	s.epoch++ // every live block now lags → first write per block COWs
	return snap
}

// Restore returns the store to the exact contents captured by snap.
// Restoring the most recently armed snapshot undoes its journal —
// O(blocks written and pages born since Snapshot). Restoring an older
// snapshot (or one from before a Reset) reinstalls its page set
// outright and re-arms it, still O(touched pages) with no data
// copying. Either way snap remains valid and can be restored again.
func (s *Store) Restore(snap *StoreSnapshot) {
	s.lastPN, s.lastPE = 0, nil
	if s.snap == snap {
		for i := len(snap.journal) - 1; i >= 0; i-- {
			u := snap.journal[i]
			if u.birth {
				if u.e.pn >= dirCapPages {
					delete(s.far, u.e.pn)
				}
				s.free = append(s.free, u.e.blocks[:]...)
				*u.e.blocks, u.e.epoch, u.e.priv = [pageBlocks]*block{}, 0, 0
			} else {
				// The copy is private to the store — no snapshot
				// references it — so it can be recycled.
				s.free = append(s.free, u.e.blocks[u.b])
				u.e.blocks[u.b], u.e.epoch, u.e.priv = u.old, u.oldEpoch, u.oldPriv
			}
		}
		snap.journal = snap.journal[:0]
		s.pages = s.pages[:len(snap.entries)]
		s.touched = snap.touched
		return
	}
	// Full reinstall: drop the current page set, then re-link the
	// snapshot's entries with their saved blocks. A current block that
	// is not private may be shared with some snapshot, so it goes to
	// the GC, not the free list. Entry epochs are zeroed below the new
	// armed epoch so every future write copies before touching a
	// snapshot-owned block.
	s.dropPages()
	for _, sv := range snap.entries {
		e := sv.e
		*e.blocks, e.epoch, e.priv = sv.blocks, 0, 0
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
