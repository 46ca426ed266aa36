package mem

import (
	"fmt"

	"drftest/internal/reuse"
)

// Line is a refcounted cache-line payload handle: the unit of data
// movement through the simulated memory system. Instead of copying a
// line's bytes (and dirty mask) at every hop — sequencer to L1, L1 to
// network message, message to L2, L2 to memory controller — components
// pass the same *Line and adjust its reference count, copying only
// when a holder actually needs to mutate a payload that others can
// still observe (Writable's copy-on-write).
//
// Ownership contract:
//
//   - Get/GetMasked return a line the caller owns (refcount 1).
//   - Passing a line to another component transfers that reference
//     unless the API says otherwise; a holder that keeps the line past
//     the call must Retain it.
//   - Every reference is balanced by exactly one Release; the last
//     Release recycles the line into its pool and bumps its epoch.
//   - A holder may write l.Data / l.Mask() only through the line
//     returned by Writable(), which is an in-place no-op for a sole
//     owner and a pool-backed copy when the payload is shared.
//
// The epoch is the use-after-release detector: a holder records
// l.Epoch() when it stashes a reference (e.g. a message payload) and
// checks it on consumption — if the line was recycled underneath (a
// refcount accounting bug), the epochs disagree. The simulation kernel
// is single-threaded, so refcounts are plain ints and recycled data
// buffers are handed out as-is: contents are deterministic, and every
// consumer either fully overwrites the buffer (fills) or honors the
// byte mask (merges), so residual bytes are never observed.
type Line struct {
	// Data is the payload, sized by the Get call. Write only via
	// Writable (see the ownership contract).
	Data []byte

	// mask is the lazily attached per-byte dirty mask; masked gates it
	// so a recycled mask buffer can stay attached across unmasked uses.
	mask   []bool
	masked bool

	refs  int
	epoch uint64
	pool  *LinePool

	// idx is the line's slot in the pool's registry.
	idx int
}

// Mask returns the per-byte dirty mask, or nil when the line carries
// none (all bytes valid). True marks a byte as present/dirty.
func (l *Line) Mask() []bool {
	if !l.masked {
		return nil
	}
	return l.mask
}

// Refs returns the current reference count.
func (l *Line) Refs() int { return l.refs }

// Epoch returns the line's recycle epoch. It changes exactly when the
// line is recycled into its pool, so a stashed (line, epoch) pair
// detects use-after-release on consumption.
func (l *Line) Epoch() uint64 { return l.epoch }

// Retain adds a reference and returns l for call-site convenience.
func (l *Line) Retain() *Line {
	l.refs++
	return l
}

// Release drops one reference; the last release recycles the line into
// its pool (bumping the epoch so stale handles are detectable).
func (l *Line) Release() {
	l.refs--
	if l.refs > 0 {
		return
	}
	if l.refs < 0 {
		panic("mem: Line over-released")
	}
	l.epoch++
	l.masked = false
	l.pool.free = append(l.pool.free, l)
}

// Writable returns a line whose payload the caller may mutate: l
// itself when the caller is the sole owner, or a pool-backed copy
// (data and mask) when the payload is shared — the caller's reference
// moves to the copy and the other holders keep the original intact.
// Callers must replace their stored reference with the result.
func (l *Line) Writable() *Line {
	if l.refs == 1 {
		return l
	}
	nl := l.pool.Get(len(l.Data))
	copy(nl.Data, l.Data)
	if l.masked {
		copy(nl.ensureMask(), l.mask)
	}
	l.refs--
	return nl
}

// ensureMask attaches (or re-activates) the mask buffer without
// zeroing; callers that need a clean mask use GetMasked.
func (l *Line) ensureMask() []bool {
	n := len(l.Data)
	if cap(l.mask) < n {
		l.mask = make([]bool, n)
	}
	l.mask = l.mask[:n]
	l.masked = true
	return l.mask
}

// LinePool recycles Line handles. One pool serves a whole simulated
// system; Release routes each line back to its owning pool, so handles
// may cross component boundaries freely.
//
// For mid-run checkpointing the pool mirrors the message-pool
// doctrine: EnableTracking registers every line handed out afterwards,
// Snapshot captures each registered line's contents and refcount, and
// Restore writes them back into the same Line objects — holders
// restored by identity (messages, TBEs, queued requests) then agree
// with the payloads they reference.
type LinePool struct {
	lineSize int
	free     []*Line

	// all registers every line ever allocated, in birth order: Reset
	// force-reclaims through it (holders drop references without
	// releasing when a run is torn down), and Snapshot/Restore capture
	// contents through it once tracking is enabled.
	all   []*Line
	track bool

	gets, allocs uint64
}

// NewLinePool returns a pool whose fresh allocations default to
// lineSize bytes of capacity (Get may ask for other sizes).
func NewLinePool(lineSize int) *LinePool {
	return &LinePool{lineSize: lineSize}
}

// Get returns a line with n payload bytes, owned by the caller
// (refcount 1) and carrying no mask. The data is NOT zeroed: recycled
// contents are deterministic (single-threaded kernel) and consumers
// either overwrite the buffer or honor the mask.
func (p *LinePool) Get(n int) *Line {
	p.gets++
	for i := len(p.free) - 1; i >= 0; i-- {
		l := p.free[i]
		if cap(l.Data) >= n {
			p.free[i] = p.free[len(p.free)-1]
			p.free[len(p.free)-1] = nil
			p.free = p.free[:len(p.free)-1]
			l.Data = l.Data[:n]
			l.refs = 1
			return l
		}
	}
	p.allocs++
	c := n
	if c < p.lineSize {
		c = p.lineSize
	}
	l := &Line{Data: make([]byte, n, c), refs: 1, pool: p, idx: len(p.all)}
	p.all = append(p.all, l)
	return l
}

// GetMasked returns a line with n payload bytes and a zeroed per-byte
// mask attached.
func (p *LinePool) GetMasked(n int) *Line {
	l := p.Get(n)
	m := l.ensureMask()
	clear(m)
	return l
}

// Stats returns the pool's Get and allocation-fallback counters: a
// steady state recycles every line, so allocs stops growing.
func (p *LinePool) Stats() (gets, allocs uint64) { return p.gets, p.allocs }

// Reset force-reclaims every line: holders being torn down drop their
// references without releasing (their state is recycled wholesale),
// so the pool re-parks the entire registry on the free stack in birth
// order. Only valid when the owning kernel has been reset — no event
// may still deliver a payload.
func (p *LinePool) Reset() {
	p.free = p.free[:0]
	for _, l := range p.all {
		l.refs = 0
		l.masked = false
		p.free = append(p.free, l)
	}
}

// EnableTracking arms the pool for mid-run snapshots: Snapshot/Restore
// become valid and capture every registered line's contents. Tracking
// stays on for the pool's lifetime.
func (p *LinePool) EnableTracking() { p.track = true }

// lineSave captures one registered line's full state.
type lineSave struct {
	data   []byte
	mask   []bool
	masked bool
	refs   int
	epoch  uint64
}

// LinePoolSnapshot captures every registered line's contents plus the
// free-stack order (which determines future Get results, so replay
// bit-identity depends on it).
type LinePoolSnapshot struct {
	lines []lineSave
	free  []int32
}

// Snapshot captures the registered lines. Only valid with tracking on.
func (p *LinePool) Snapshot() *LinePoolSnapshot { return p.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling s, a snapshot the caller knows is
// dead (nil allocates): saved lines keep their data and mask buffers.
func (p *LinePool) SnapshotInto(s *LinePoolSnapshot) *LinePoolSnapshot {
	if !p.track {
		panic("mem: LinePool.Snapshot without EnableTracking")
	}
	if s == nil {
		s = &LinePoolSnapshot{}
	}
	s.lines = s.lines[:0]
	for _, l := range p.all {
		sv := reuse.Grow(&s.lines)
		sv.data = append(sv.data[:0], l.Data...)
		sv.masked, sv.refs, sv.epoch = l.masked, l.refs, l.epoch
		sv.mask = sv.mask[:0]
		if l.masked {
			sv.mask = append(sv.mask, l.mask...)
		}
	}
	s.free = s.free[:0]
	for _, l := range p.free {
		s.free = append(s.free, int32(l.idx))
	}
	return s
}

// Restore writes the captured state back into the same Line objects.
// Lines allocated after the snapshot are zeroed and parked at the
// bottom of the free stack (below the captured order, which must
// replay verbatim); a Get that would have been an allocation at
// snapshot time pops one of them instead — same zeroed contents.
func (p *LinePool) Restore(s *LinePoolSnapshot) {
	n := len(s.lines)
	for i, l := range p.all {
		if i < n {
			sv := &s.lines[i]
			l.Data = l.Data[:len(sv.data)]
			copy(l.Data, sv.data)
			l.masked = sv.masked
			if sv.masked {
				if cap(l.mask) < len(sv.mask) {
					l.mask = make([]bool, len(sv.mask))
				}
				l.mask = l.mask[:len(sv.mask)]
				copy(l.mask, sv.mask)
			}
			l.refs = sv.refs
			l.epoch = sv.epoch
			continue
		}
		l.Data = l.Data[:cap(l.Data)]
		clear(l.Data)
		clear(l.mask)
		l.masked = false
		l.refs = 0
		l.epoch = 0
	}
	p.free = p.free[:0]
	for _, l := range p.all[n:] {
		p.free = append(p.free, l)
	}
	for _, idx := range s.free {
		p.free = append(p.free, p.all[idx])
	}
}

// AuditLive panics unless exactly want lines are live (refcount > 0)
// among the tracked registry — a refcount-leak tripwire for tests.
// Only meaningful with tracking on.
func (p *LinePool) AuditLive(want int) {
	live := 0
	for _, l := range p.all {
		if l.refs > 0 {
			live++
		}
	}
	if live != want {
		panic(fmt.Sprintf("mem: %d live lines, want %d", live, want))
	}
}
