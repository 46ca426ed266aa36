package core

import (
	"fmt"
	"slices"

	"drftest/internal/mem"
	"drftest/internal/rng"
	"drftest/internal/table"
)

// AccessRecord identifies one access to a variable, the unit of the
// paper's Table V failure reports. Packed small: sync variables keep
// one record per distinct atomic old value, so the struct size scales
// the checker's per-run footprint.
type AccessRecord struct {
	EpisodeID uint64
	Addr      mem.Addr
	Cycle     uint64
	ThreadID  int32
	WFID      int32
	Value     uint32
}

func (a AccessRecord) String() string {
	return fmt.Sprintf("thread=%d group=%d episode=%d addr=%#x cycle=%d value=%d",
		a.ThreadID, a.WFID, a.EpisodeID, uint64(a.Addr), a.Cycle, a.Value)
}

// claimKind is the set of claims one episode holds on one variable.
type claimKind uint8

const (
	claimRead claimKind = 1 << iota
	claimWrite
)

// variable is one tester location. Sync variables are accessed only by
// atomics; data variables only by loads and stores — the DRF class
// separation of §III.A. The narrow fields share words: a large space is
// one slab of these, and it is rebuilt per seed.
type variable struct {
	addr mem.Addr

	// Claims by live episodes enforcing the two §III.A race-freedom
	// rules. writer==0 means unclaimed (episode IDs start at 1). Readers
	// are a count and the wrapping sum of their episode IDs, which is the
	// one reader's ID exactly when the count is 1. Each episode claims a
	// variable at most once per kind (its own claims table says which),
	// so count and sum stay exact. The space's claim word for the
	// variable is derived from these three.
	writer    uint64
	readerSum uint64

	// Atomic bookkeeping (sync variables; seenOld is nil on the rest):
	// returned old values must be unique multiples of the delta;
	// completed counts the responses.
	seenOld   *table.Table[uint32, AccessRecord]
	completed uint64

	id      int32
	readers uint32

	// value is the retired reference value (data variables): what any
	// load outside the writing episode must observe.
	value uint32

	// pend is the latest value the writer episode has stored, valid
	// while pendSet: its own later loads must observe it, and retiring
	// makes it value. The write claim excludes every other episode, so
	// only the writer reads or writes these two.
	pend uint32

	// lastWIdx indexes the address space's lastWriters side slice, -1
	// when the variable was never stored. Keeping the 48-byte record
	// out of line shrinks the slab by ~2/3: a large space has far more
	// variables than any run ever stores to.
	lastWIdx int32

	sync    bool
	pendSet bool
}

// heldBy returns the claims episode eps holds on v, which it must have
// claimed: eps holds the write claim iff it is the writer, and a read
// claim iff it is not the writer (it claimed something) or it is the
// writer and the one reader (a writer excludes every other reader).
func (v *variable) heldBy(eps uint64) claimKind {
	if v.writer != eps {
		return claimRead
	}
	if v.readers == 1 {
		return claimWrite | claimRead
	}
	return claimWrite
}

// A claim word encodes every live claim on one data variable in one
// uint64. Only three states are reachable, because a writer excludes
// every other claimer and two readers exclude a writer: 0 (unclaimed),
// eps<<2 | kinds (episode eps alone holds kinds), and multiRead (two or
// more episodes read it, none writes). multiRead is a read claim by
// episode 0, which does not exist, so it names no episode.
const multiRead = uint64(claimRead)

// claimWord encodes v's claims.
func claimWord(v *variable) uint64 {
	switch {
	case v.writer != 0:
		return v.writer<<2 | uint64(v.heldBy(v.writer))
	case v.readers == 1:
		return v.readerSum<<2 | uint64(claimRead)
	case v.readers > 1:
		return multiRead
	}
	return 0
}

// admits reports whether claim word w admits an access by episode eps:
// a store when nobody else claims the variable, a load when nobody else
// writes it.
func admits(w, eps uint64, store bool) bool {
	if w>>2 == eps {
		return true
	}
	if store {
		return w == 0
	}
	return w&uint64(claimWrite) == 0
}

// addressSpace maps variables to random word-aligned addresses in a
// range (Fig. 2's random variable→address mapping). Because the range
// is only modestly larger than the packed variable footprint, multiple
// variables — including sync next to data — land in the same cache
// line, which is the false-sharing engine of the whole methodology.
type addressSpace struct {
	spaceState

	// syncVars and dataVars are the two classes' views of the slab: the
	// first numSync sampled slots are sync variables.
	syncVars []variable
	dataVars []variable

	// words holds one claim word per data variable, in dataVars order:
	// the generator's one admissibility test reads a dense 8-byte word
	// per draw instead of a slab entry. Derived from the slab — claim
	// and release rewrite a variable's word, rebuild and rederive
	// recompute them all.
	words []uint64

	// chosen and roles are rebuild's scratch: the sampled word slots,
	// and per cache line bit 0 for a sync variable in it and bit 1 for a
	// data variable.
	chosen []uint64
	roles  []uint8

	// seenOld holds the old-value tables of every sync variable a
	// rebuild has made, by sync index: sync variable i's table is
	// seenOld[i] whatever the shape, so a corner that changes the
	// variable counts keeps the tables, and their grown capacity, of
	// the corners before it.
	seenOld []*table.Table[uint32, AccessRecord]

	lineSize int
}

// spaceState is the address space's run state. The slab and the
// address mapping are retained so rebuild (the campaign reset path) can
// regenerate the mapping without reallocating a 100k-variable space per
// seed.
type spaceState struct {
	slab  []variable
	addrs []mem.Addr

	// lastWriters holds the most recent store record per stored-to
	// variable, indexed by variable.lastWIdx. Dense in touched
	// variables rather than all variables.
	lastWriters []AccessRecord

	// free counts the data variables no live episode claims, unwritten
	// those no live episode stores; claim and release keep both exact.
	free, unwritten int

	// falseShared, the number of cache lines holding both a sync and a
	// data variable — a measure of how much cross-class false sharing
	// the mapping created — is a function of the mapping, set by rebuild.
	falseShared int
}

// copyFrom makes d hold s's state in d's own storage, every variable
// through copyVar. A live space's slab keeps its array (a restore
// requires the shape to match), so the views into it stay valid; the
// claim words are derived, and a restore recomputes them (rederive).
func (d *spaceState) copyFrom(s *spaceState) {
	d.slab = slices.Grow(d.slab[:0], len(s.slab))[:len(s.slab)]
	for i := range s.slab {
		copyVar(&d.slab[i], &s.slab[i])
	}
	d.addrs = append(d.addrs[:0], s.addrs...)
	d.lastWriters = append(d.lastWriters[:0], s.lastWriters...)
	d.free, d.unwritten, d.falseShared = s.free, s.unwritten, s.falseShared
}

// word returns the claim word slot of data variable v.
func (sp *addressSpace) word(v *variable) *uint64 {
	return &sp.words[int(v.id)-len(sp.syncVars)]
}

// rederive recomputes every claim word from the slab.
func (sp *addressSpace) rederive() {
	for i := range sp.dataVars {
		sp.words[i] = claimWord(&sp.dataVars[i])
	}
}

// claim records episode eps's first claim of kind on v.
func (sp *addressSpace) claim(v *variable, eps uint64, kind claimKind) {
	if v.writer == 0 && v.readers == 0 {
		sp.free--
	}
	if kind == claimWrite {
		v.writer = eps // was 0: the word admitted a store and eps had no write claim
		sp.unwritten--
	} else {
		v.readers++
		v.readerSum += eps
	}
	*sp.word(v) = claimWord(v)
}

// release drops every claim (held) a retiring episode eps has on v.
func (sp *addressSpace) release(v *variable, eps uint64, held claimKind) {
	if held&claimWrite != 0 {
		v.writer = 0
		sp.unwritten++
	}
	if held&claimRead != 0 {
		v.readers--
		v.readerSum -= eps
	}
	if v.writer == 0 && v.readers == 0 {
		sp.free++
	}
	*sp.word(v) = claimWord(v)
}

// admitsAny reports whether any data variable admits an access of the
// asked kind by ep. The counters answer for the variables nobody holds
// against it; any other admissible variable has ep as its writer or its
// only reader, so it is among ep's own claims.
func (sp *addressSpace) admitsAny(ep *episode, store bool) bool {
	if store && sp.free > 0 || !store && sp.unwritten > 0 {
		return true
	}
	for _, v := range ep.claimOrder {
		if admits(*sp.word(v), ep.id, store) {
			return true
		}
	}
	return false
}

// setLastWriter records the most recent store to v.
func (sp *addressSpace) setLastWriter(v *variable, rec AccessRecord) {
	if v.lastWIdx < 0 {
		v.lastWIdx = int32(len(sp.lastWriters))
		sp.lastWriters = append(sp.lastWriters, rec)
		return
	}
	sp.lastWriters[v.lastWIdx] = rec
}

// lastWriter returns the most recent store record for v, if any.
func (sp *addressSpace) lastWriter(v *variable) (AccessRecord, bool) {
	if v.lastWIdx < 0 {
		return AccessRecord{}, false
	}
	return sp.lastWriters[v.lastWIdx], true
}

func buildAddressSpace(rnd *rng.PCG, numSync, numData int, rangeBytes uint64, lineSize int) *addressSpace {
	sp := &addressSpace{}
	sp.rebuild(rnd, numSync, numData, rangeBytes, lineSize)
	return sp
}

// rebuild regenerates the random variable→address mapping in place with
// fresh randomness, reusing the variable slab, the claim words and the
// sampling bitset from a previous build when the shape allows, and the
// sync variables' old-value tables whatever the shape. A rebuilt space
// is semantically indistinguishable from a fresh one: every scalar
// field is reassigned, and retained tables are cleared (seenOld is
// lookup-only).
func (sp *addressSpace) rebuild(rnd *rng.PCG, numSync, numData int, rangeBytes uint64, lineSize int) {
	total := numSync + numData
	slots := int(rangeBytes / mem.WordSize)
	if slots < total {
		panic(fmt.Sprintf("core: address range %dB too small for %d variables", rangeBytes, total))
	}

	// Sample `total` distinct word slots from [0, slots). A bitset
	// tracks occupancy: the range is by construction only a small
	// multiple of the variable count, so the set costs slots/8 bytes
	// in one allocation where a map would cost tens of bytes per entry
	// and a hash per probe.
	words := (slots + 63) / 64
	if cap(sp.chosen) < words {
		sp.chosen = make([]uint64, words)
	} else {
		sp.chosen = sp.chosen[:words]
		clear(sp.chosen)
	}
	if cap(sp.addrs) < total {
		sp.addrs = make([]mem.Addr, 0, total)
	} else {
		sp.addrs = sp.addrs[:0]
	}
	for len(sp.addrs) < total {
		s := rnd.Intn(slots)
		if sp.chosen[s>>6]&(1<<(s&63)) != 0 {
			continue
		}
		sp.chosen[s>>6] |= 1 << (s & 63)
		sp.addrs = append(sp.addrs, mem.Addr(s*mem.WordSize))
	}
	// The first numSync sampled slots become sync variables; sampling
	// order is random, so sync variables scatter across the range.
	// Variables live in one slab: a 100k-variable space costs one
	// allocation, not 100k.
	if len(sp.slab) != total {
		sp.slab = make([]variable, total)
	}
	sp.syncVars, sp.dataVars = sp.slab[:numSync], sp.slab[numSync:]
	if cap(sp.words) < numData {
		sp.words = make([]uint64, numData)
	} else {
		sp.words = sp.words[:numData]
		clear(sp.words)
	}
	sp.lastWriters = sp.lastWriters[:0]
	sp.free, sp.unwritten = numData, numData
	sp.lineSize, sp.falseShared = lineSize, 0
	sp.roles = append(sp.roles[:0], make([]uint8, rangeBytes/uint64(lineSize)+1)...)
	for len(sp.seenOld) < numSync {
		sp.seenOld = append(sp.seenOld, new(table.Table[uint32, AccessRecord]))
	}
	for i, a := range sp.addrs {
		v := &sp.slab[i]
		*v = variable{id: int32(i), sync: i < numSync, addr: a, lastWIdx: -1}
		role := &sp.roles[a/mem.Addr(lineSize)]
		if v.sync {
			*role |= 1
			v.seenOld = sp.seenOld[i]
			v.seenOld.Clear()
		} else {
			if *role == 1 {
				sp.falseShared++ // sync variables come first: the line's first data variable
			}
			*role |= 2
		}
	}
}
