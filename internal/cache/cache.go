// Package cache implements the storage half of a Ruby-style cache
// controller: a set-associative tag/data array with LRU replacement and
// masked partial-line writes.
//
// Protocol state machines (package protocol and the controllers built
// on it) own the line *state*; this package only stores it, finds
// victims, and moves bytes. Writes merge under a per-byte mask because
// VIPER is a write-through protocol that merges partial-line writes,
// and because false sharing — distinct variables in one line — is the
// bug surface the tester deliberately provokes. Dirtiness itself is a
// protocol state (a whole line is written back), not a per-byte mask.
//
// The array owns validity: lines become valid through Install and
// invalid through InvalidateLine only, which keeps a one-bit-per-way
// index exact, so every whole-array operation (flash-invalidate, the
// valid-line walks, Reset, Snapshot, Restore) costs what the array
// holds, not what it could hold. It also owns the tags and LRU stamps,
// which lets it mirror both in packed per-set rows: a probe scans eight
// bytes per way and touches a 64-byte Line header only on the way it
// returns. The headers and their bytes are laid out one way plane at a
// time, each built the first time a line of it is handed out, so
// building an array costs its rows, not its capacity.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"drftest/internal/mem"
)

// Config sizes a cache array. All three values must be powers of two,
// LineSize at least one word and SizeBytes at least Assoc*LineSize and
// at most MaxSizeBytes.
type Config struct {
	SizeBytes int
	LineSize  int
	Assoc     int
}

// MaxSizeBytes is the largest array a Config may size: NewArray
// allocates its probe rows, 16 bytes per way, up front, and a run may
// reach every way plane.
const MaxSizeBytes = 1 << 30

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.LineSize * c.Assoc) }

// Validate reports, naming the field, why c cannot size an array, or
// nil.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		n    int
	}{{"SizeBytes", c.SizeBytes}, {"LineSize", c.LineSize}, {"Assoc", c.Assoc}} {
		if f.n <= 0 || f.n&(f.n-1) != 0 {
			return fmt.Errorf("cache: %s %d is not a positive power of two", f.name, f.n)
		}
	}
	if c.SizeBytes > MaxSizeBytes {
		return fmt.Errorf("cache: SizeBytes %d exceeds the admission limit of %d", c.SizeBytes, MaxSizeBytes)
	}
	// A word access slices [off:off+WordSize] out of a line, and the tag
	// row keeps validity in a line address's bit 0.
	if c.LineSize < mem.WordSize {
		return fmt.Errorf("cache: LineSize %d is smaller than a %d-byte word", c.LineSize, mem.WordSize)
	}
	if c.LineSize > c.SizeBytes/c.Assoc { // Sets() < 1, without the product's overflow
		return fmt.Errorf("cache: SizeBytes %d too small for %d-way %dB lines", c.SizeBytes, c.Assoc, c.LineSize)
	}
	return nil
}

// Line is one cache line. State is protocol-defined; Valid merely says
// the tag is meaningful. Only the owning Array changes validity
// (Install, InvalidateLine), and an invalid line is always in the
// just-built state: no LRU stamp, contents never read.
type Line struct {
	Tag   mem.Addr // line-aligned address
	valid bool
	idx   int32 // line index in the array, set once when its plane is built
	State int
	Data  []byte

	lastUse uint64

	// epoch is the array's snapshot epoch this line was last journaled
	// in; while a snapshot is armed, any access that can hand the line
	// out for mutation saves an undo record the first time per epoch.
	epoch uint64
}

// Valid reports whether the line holds a tag.
func (l *Line) Valid() bool { return l.valid }

// WriteMasked merges src into the line under mask (nil = all bytes).
func (l *Line) WriteMasked(src []byte, mask []bool) {
	for i := range src {
		if mask != nil && !mask[i] {
			continue
		}
		l.Data[i] = src[i]
	}
}

// Array is a set-associative cache array with true-LRU replacement.
type Array struct {
	cfg Config
	// lineShift and setMask place a line address: set s is line
	// indices [s*Assoc, (s+1)*Assoc), s = line>>lineShift&setMask.
	// Line index i is way i&wayMask of set i>>wayShift.
	lineShift uint
	setMask   mem.Addr
	wayShift  uint
	wayMask   int
	useClock  uint64

	// planes holds the lines one way at a time: planes[w][s] is line
	// s*Assoc+w, and planes[w] is nil until claim brings it in. Lines are
	// addressed by index, set-major and way-minor, so snapshots name a
	// line by one number; live has bit i set exactly when line i is
	// valid, which needs its plane.
	planes [][]Line
	live   []uint64

	// tags and stamps are the probe rows, indexed by line: tags[i] is
	// line i's Tag with bit 0 set (a line address is a multiple of
	// LineSize >= 4, so the bit is free) or 0 while the way is invalid,
	// stamps[i] is its lastUse — 0 exactly on an invalid way, since
	// Install stamps from a clock that has already ticked. mark, clear
	// and Lookup's touch keep both in step with the headers.
	tags   []uint64
	stamps []uint64

	// stats
	lookups uint64
	hits    uint64

	// Snapshot support: snap is the armed snapshot (nil when
	// journaling is off), epoch the current arming generation, and
	// journal the undo log of lines touched since arming. Restoring
	// the armed snapshot replays the journal — O(lines touched).
	snap    *ArraySnapshot
	epoch   uint64
	journal []lineUndo
}

// ArraySnapshot captures an Array's contents at one instant: only the
// valid lines are stored, header and data in one slab each. Everything else is in the just-built state (its bytes are
// never read, Install zeroes a claimed way), so a snapshot costs what
// the array holds and an empty or flash-invalidated one stores no
// lines.
type ArraySnapshot struct {
	hdrs     []lineHdr
	data     []byte // len(hdrs) × LineSize
	useClock uint64
	lookups  uint64
	hits     uint64
}

// lineHdr is one valid line's scalar state and its index in the array.
type lineHdr struct {
	idx     int32
	state   int
	tag     mem.Addr
	lastUse uint64
}

type lineUndo struct {
	l    *Line
	save Line // value copy; save.Data is a private buffer
}

// NewArray builds an array for cfg; it panics on an invalid config
// because sizing errors are programming mistakes, not runtime input.
func NewArray(cfg Config) *Array {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// The two rows share one allocation; with the index, the empty plane
	// table and the Array itself, building costs four allocations and
	// 16 bytes per way. The lines come one plane at a time (claim).
	total := cfg.Sets() * cfg.Assoc
	rows := make([]uint64, 2*total)
	return &Array{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:   mem.Addr(cfg.Sets() - 1),
		wayShift:  uint(bits.TrailingZeros(uint(cfg.Assoc))),
		wayMask:   cfg.Assoc - 1,
		planes:    make([][]Line, cfg.Assoc),
		live:      make([]uint64, (total+63)/64),
		tags:      rows[:total:total],
		stamps:    rows[total:],
	}
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// line returns line i, whose way plane exists: the line is valid, or
// Victim or Restore has claimed it. It stays small enough to inline
// into the probes.
func (a *Array) line(i int) *Line { return &a.planes[i&a.wayMask][i>>a.wayShift] }

// claim returns line i for Victim to hand out or Restore to reinstall,
// building its way plane first if no line of the plane has been
// claimed yet. Victim takes the lowest invalid way, so planes come in
// from way 0 up and a way no set has reached costs nothing; Reset and
// Restore keep the planes built.
func (a *Array) claim(i int) *Line {
	if w := i & a.wayMask; a.planes[w] == nil {
		a.buildPlane(w)
	}
	return a.line(i)
}

// buildPlane lays out way w of every set: one allocation for the
// headers and one for their bytes, each line's Data pinned to its own
// LineSize by a full slice expression so no write spills into a
// neighbour.
func (a *Array) buildPlane(w int) {
	sets, ls := a.cfg.Sets(), a.cfg.LineSize
	p := make([]Line, sets)
	data := make([]byte, sets*ls)
	for s := range p {
		p[s].idx = int32(s<<a.wayShift | w)
		p[s].Data = data[s*ls : (s+1)*ls : (s+1)*ls]
	}
	a.planes[w] = p
}

// forValid calls f on every valid line in ascending line index — the
// set-major, way-minor order — journaling each first when asked
// and a snapshot is armed. f may invalidate the line it is handed and
// must leave the validity of every other line alone.
func (a *Array) forValid(journal bool, f func(*Line)) {
	journal = journal && a.snap != nil
	for w := range a.live {
		for word := a.live[w]; word != 0; word &= word - 1 {
			l := a.line(w<<6 | bits.TrailingZeros64(word))
			if journal && l.epoch != a.epoch {
				a.journalLine(l)
			}
			f(l)
		}
	}
}

// mark makes the index and the rows agree with l's header.
func (a *Array) mark(l *Line) {
	if w, bit := l.idx>>6, uint64(1)<<(l.idx&63); l.valid {
		a.live[w] |= bit
		a.tags[l.idx] = uint64(l.Tag) | 1
	} else {
		a.live[w] &^= bit
		a.tags[l.idx] = 0
	}
	a.stamps[l.idx] = l.lastUse
}

// clear returns every valid line to the just-built state, unjournaled.
func (a *Array) clear() {
	a.forValid(false, func(l *Line) {
		l.valid, l.lastUse = false, 0
		a.tags[l.idx], a.stamps[l.idx] = 0, 0
	})
	clear(a.live)
}

// Reset invalidates every valid line and zeroes the LRU clock and
// stats, returning the array to its just-built state without
// reallocating, at a cost proportional to the lines it holds. The way
// planes already built stay, so a recycled array refills without
// allocating. Stale line data need not be cleared: invalid lines are
// never read (Valid gates every lookup, and Victim prefers an invalid
// way regardless of tag), and Install zeroes it when a way is claimed.
// Reset also disarms any armed snapshot rather than journaling every
// line; restoring that snapshot later still works via the
// reinstall path.
func (a *Array) Reset() {
	a.clear()
	a.useClock = 0
	a.lookups, a.hits = 0, 0
	a.snap = nil
	a.journal = a.journal[:0]
}

// setBase returns the line index of way 0 of addr's set.
func (a *Array) setBase(addr mem.Addr) int {
	return int(addr>>a.lineShift&a.setMask) * a.cfg.Assoc
}

// find returns the line index of the valid way holding addr's line,
// or -1, reading the set's tag row only.
func (a *Array) find(addr mem.Addr) int {
	base := a.setBase(addr)
	want := uint64(mem.LineAddr(addr, a.cfg.LineSize)) | 1
	for w, tag := range a.tags[base : base+a.cfg.Assoc] {
		if tag == want {
			return base + w
		}
	}
	return -1
}

// Lookup returns the line holding addr's cache line, or nil on miss.
// A hit refreshes LRU state.
func (a *Array) Lookup(addr mem.Addr) *Line {
	a.lookups++
	i := a.find(addr)
	if i < 0 {
		return nil
	}
	l := a.line(i)
	if a.snap != nil && l.epoch != a.epoch {
		a.journalLine(l)
	}
	a.useClock++
	l.lastUse, a.stamps[i] = a.useClock, a.useClock
	a.hits++
	return l
}

// Peek is Lookup without LRU or stats side effects. (The returned
// line may still be mutated by the caller, so it is journaled like any
// other escape while a snapshot is armed.)
func (a *Array) Peek(addr mem.Addr) *Line {
	i := a.find(addr)
	if i < 0 {
		return nil
	}
	l := a.line(i)
	if a.snap != nil && l.epoch != a.epoch {
		a.journalLine(l)
	}
	return l
}

// Victim returns the line that would be evicted to make room for addr:
// an invalid way if one exists, otherwise the least recently used way
// for which mayEvict returns true (nil mayEvict allows all). It returns
// nil when every way is pinned — the caller must stall, exactly like a
// Ruby controller waiting on a busy set. It reads the set's stamp row,
// where 0 is an invalid way, and asks mayEvict (a pure predicate) only
// about a way older than the best so far.
func (a *Array) Victim(addr mem.Addr, mayEvict func(*Line) bool) *Line {
	base := a.setBase(addr)
	var victim *Line
	var oldest uint64
	for w, stamp := range a.stamps[base : base+a.cfg.Assoc] {
		if stamp == 0 {
			victim = a.claim(base + w)
			break
		}
		if victim != nil && stamp >= oldest {
			continue
		}
		if l := a.line(base + w); mayEvict == nil || mayEvict(l) {
			victim, oldest = l, stamp
		}
	}
	if victim != nil && a.snap != nil && victim.epoch != a.epoch {
		a.journalLine(victim)
	}
	return victim
}

// Install claims way for addr's line: sets the tag, validates it,
// zeroes the data, and refreshes LRU. The way must come from Victim (or
// be otherwise known free).
func (a *Array) Install(way *Line, addr mem.Addr, state int) *Line {
	if a.snap != nil && way.epoch != a.epoch {
		a.journalLine(way)
	}
	way.Tag = mem.LineAddr(addr, a.cfg.LineSize)
	way.valid = true
	way.State = state
	clear(way.Data)
	a.useClock++
	way.lastUse = a.useClock
	a.mark(way)
	return way
}

// InvalidateLine returns l, a line of this array, to the just-built
// state (invalid, no LRU stamp), journaling it like any other mutation.
// It is the only way a line becomes invalid; an invalid l is a no-op.
func (a *Array) InvalidateLine(l *Line) {
	if a.snap != nil && l.epoch != a.epoch {
		a.journalLine(l)
	}
	l.valid, l.lastUse = false, 0
	a.mark(l)
}

// Invalidate drops addr's line if present.
func (a *Array) Invalidate(addr mem.Addr) {
	if l := a.Peek(addr); l != nil {
		a.InvalidateLine(l)
	}
}

// FlashInvalidate visits every valid line (the VIPER load-acquire
// semantic). If visit returns false the line is kept — controllers use
// this to preserve lines with in-flight transactions.
func (a *Array) FlashInvalidate(visit func(*Line) bool) int {
	n := 0
	a.forValid(true, func(l *Line) {
		if visit == nil || visit(l) {
			a.InvalidateLine(l)
			n++
		}
	})
	return n
}

// ForEachValid visits every valid line. Visitors may mutate the line
// (controllers use this for write-back flushes), so each visited line
// is journaled while a snapshot is armed.
func (a *Array) ForEachValid(visit func(*Line)) { a.forValid(true, visit) }

// CountValid returns the number of valid lines.
func (a *Array) CountValid() int {
	n := 0
	for _, word := range a.live {
		n += bits.OnesCount64(word)
	}
	return n
}

// Stats returns (lookups, hits) since construction.
func (a *Array) Stats() (lookups, hits uint64) { return a.lookups, a.hits }

// journalLine saves l's pre-mutation state into the undo journal, once
// per line per arming epoch. Journal entries keep their saved-copy
// buffers across truncation, so steady-state forking journals without
// allocating.
func (a *Array) journalLine(l *Line) {
	n := len(a.journal)
	if n < cap(a.journal) {
		a.journal = a.journal[:n+1]
		u := &a.journal[n]
		d := u.save.Data
		u.l = l
		u.save = *l
		u.save.Data = append(d[:0], l.Data...)
	} else {
		u := lineUndo{l: l, save: *l}
		u.save.Data = append([]byte(nil), l.Data...)
		a.journal = append(a.journal, u)
	}
	l.epoch = a.epoch
}

// Snapshot captures the array's valid lines and arms undo journaling
// so Restore of this snapshot replays only the lines touched since.
// The snapshot shares no mutable storage with the array and stays
// valid across later snapshots, restores and resets.
func (a *Array) Snapshot() *ArraySnapshot { return a.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling s, a snapshot of this array the
// caller knows is dead (nil allocates). A dead snapshot may still be
// the armed one; refilling re-arms it against the new contents.
func (a *Array) SnapshotInto(s *ArraySnapshot) *ArraySnapshot {
	if s == nil {
		s = &ArraySnapshot{}
	}
	n := 0
	for _, w := range a.live {
		n += bits.OnesCount64(w)
	}
	s.hdrs = slices.Grow(s.hdrs[:0], n)
	s.data = slices.Grow(s.data[:0], n*a.cfg.LineSize)
	s.useClock, s.lookups, s.hits = a.useClock, a.lookups, a.hits
	a.forValid(false, func(l *Line) {
		s.hdrs = append(s.hdrs, lineHdr{idx: l.idx, state: l.State, tag: l.Tag, lastUse: l.lastUse})
		s.data = append(s.data, l.Data...)
	})
	a.snap = s
	a.journal = a.journal[:0]
	a.epoch++
	return s
}

// Restore returns the array to the state captured by s. When s is the
// armed snapshot the undo journal is replayed in reverse — O(lines
// touched since Snapshot), each undo record repairing its line's index
// bit and row entries. Otherwise the valid lines are returned to the
// just-built state, the snapshot's lines are reinstalled — O(lines held
// before + after) — and s becomes the armed snapshot.
func (a *Array) Restore(s *ArraySnapshot) {
	if a.snap == s {
		for i := len(a.journal) - 1; i >= 0; i-- {
			u := &a.journal[i]
			l := u.l
			copy(l.Data, u.save.Data)
			l.Tag, l.valid, l.State = u.save.Tag, u.save.valid, u.save.State
			l.lastUse, l.epoch = u.save.lastUse, u.save.epoch
			a.mark(l)
		}
	} else {
		a.clear()
		ls := a.cfg.LineSize
		for j, h := range s.hdrs {
			l := a.claim(int(h.idx))
			l.Tag, l.valid, l.State, l.lastUse = h.tag, true, h.state, h.lastUse
			a.mark(l)
			copy(l.Data, s.data[j*ls:])
		}
		a.snap = s
		a.epoch++
	}
	a.journal = a.journal[:0]
	a.useClock, a.lookups, a.hits = s.useClock, s.lookups, s.hits
}
