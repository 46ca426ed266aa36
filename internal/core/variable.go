package core

import (
	"fmt"

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
	id   int
	addr mem.Addr

	// Claims by live episodes enforcing the two §III.A race-freedom
	// rules. writer==0 means unclaimed (episode IDs start at 1). Readers
	// are a count and the wrapping sum of their episode IDs, which is the
	// one reader's ID exactly when the count is 1 — all canStore asks.
	// Each episode claims a variable at most once per kind (its own
	// claims table says which), so count and sum stay exact.
	writer    uint64
	readerSum uint64

	// Atomic bookkeeping (sync variables; seenOld is nil on the rest):
	// returned old values must be unique multiples of the delta;
	// completed counts the responses.
	seenOld   *table.Table[uint32, AccessRecord]
	completed uint64

	readers uint32
	sync    bool

	// value is the retired reference value (data variables): what any
	// load outside the writing episode must observe.
	value uint32

	// lastWIdx indexes the address space's lastWriters side slice, -1
	// when the variable was never stored. Keeping the 48-byte record
	// out of line shrinks the slab by ~2/3: a large space has far more
	// variables than any run ever stores to.
	lastWIdx int32
}

// canLoad reports whether episode eps may generate a load of v: no
// *other* live episode may be storing it.
func (v *variable) canLoad(eps uint64) bool {
	return v.writer == 0 || v.writer == eps
}

// canStore reports whether episode eps may generate a store of v: no
// other live episode may be loading or storing it.
func (v *variable) canStore(eps uint64) bool {
	return v.canLoad(eps) && (v.readers == 0 || v.readers == 1 && v.readerSum == eps)
}

// admits is canStore or canLoad by the kind of access asked for.
func (v *variable) admits(eps uint64, store bool) bool {
	if store {
		return v.canStore(eps)
	}
	return v.canLoad(eps)
}

// addressSpace maps variables to random word-aligned addresses in a
// range (Fig. 2's random variable→address mapping). Because the range
// is only modestly larger than the packed variable footprint, multiple
// variables — including sync next to data — land in the same cache
// line, which is the false-sharing engine of the whole methodology.
type addressSpace struct {
	syncVars []*variable
	dataVars []*variable

	// slab/chosen/roles/addrs are the backing storage, retained so
	// rebuild (campaign reset path) can regenerate the mapping without
	// reallocating a 100k-variable space per seed. roles is rebuild's
	// scratch: per cache line, bit 0 for a sync variable in it and bit 1
	// for a data variable.
	slab   []variable
	chosen []uint64
	roles  []uint8
	addrs  []mem.Addr

	// lastWriters holds the most recent store record per stored-to
	// variable, indexed by variable.lastWIdx. Dense in touched
	// variables rather than all variables.
	lastWriters []AccessRecord

	// free counts the data variables no live episode claims, unwritten
	// those no live episode stores; claim and release keep both exact.
	free, unwritten int

	// lineSize is fixed at construction; falseShared, the number of
	// cache lines holding both a sync and a data variable — a measure of
	// how much cross-class false sharing the mapping created — is a
	// function of the mapping and set by rebuild.
	lineSize, falseShared int
}

// claim records episode eps's first claim of kind on v.
func (sp *addressSpace) claim(v *variable, eps uint64, kind claimKind) {
	if v.writer == 0 && v.readers == 0 {
		sp.free--
	}
	if kind == claimWrite {
		v.writer = eps // was 0: canStore held and eps had no write claim
		sp.unwritten--
	} else {
		v.readers++
		v.readerSum += eps
	}
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
		if v.admits(ep.id, store) {
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
// fresh randomness, reusing the variable slab, the sampling bitset, and
// the sync variables' old-value tables from a previous build when the
// shape allows. A rebuilt space is semantically indistinguishable from
// a fresh one: every scalar field is reassigned, and retained tables
// are cleared (seenOld is lookup-only).
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
		sp.syncVars = make([]*variable, 0, numSync)
		sp.dataVars = make([]*variable, 0, numData)
	}
	sp.syncVars = sp.syncVars[:0]
	sp.dataVars = sp.dataVars[:0]
	sp.lastWriters = sp.lastWriters[:0]
	sp.free, sp.unwritten = numData, numData
	sp.lineSize, sp.falseShared = lineSize, 0
	sp.roles = append(sp.roles[:0], make([]uint8, rangeBytes/uint64(lineSize)+1)...)
	for i, a := range sp.addrs {
		v := &sp.slab[i]
		seenOld := v.seenOld
		*v = variable{id: i, sync: i < numSync, addr: a, lastWIdx: -1}
		role := &sp.roles[a/mem.Addr(lineSize)]
		if v.sync {
			*role |= 1
			if seenOld == nil {
				seenOld = new(table.Table[uint32, AccessRecord])
			}
			seenOld.Clear()
			v.seenOld = seenOld
			sp.syncVars = append(sp.syncVars, v)
		} else {
			sp.dataVars = append(sp.dataVars, v)
			if *role == 1 {
				sp.falseShared++ // sync variables come first: the line's first data variable
			}
			*role |= 2
		}
	}
}
