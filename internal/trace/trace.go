// Package trace provides the bounded execution trace behind the
// failure-replay workflow: a fixed-capacity ring buffer of simulation
// events (tick, sequence number, component, label, address) that the
// sim kernel records into and that replay artifacts embed.
//
// The trace exists for one reason: when a checker flags a coherence
// violation, the harness must be able to serialize *what just
// happened* alongside the seed and configuration, so the failing run
// can be re-executed and the protocol bug debugged (paper §V). The
// ring is bounded so tracing is usable on arbitrarily long soak runs,
// and a zero-capacity ring is a no-op so tracing costs nothing when
// disabled.
package trace

// Entry is one recorded simulation event.
type Entry struct {
	// Tick is the simulated time the event was recorded at.
	Tick uint64 `json:"tick"`
	// Seq is the entry's position in the whole recorded stream,
	// starting at 1; it totally orders entries within a tick.
	Seq uint64 `json:"seq"`
	// Component names the recording component ("gpu-tester", "GPU-L1",
	// "Directory", ...).
	Component string `json:"component"`
	// Label describes the event: an op ("issue load"), a protocol
	// transition ("V×Load"), or a failure ("fail value-mismatch").
	Label string `json:"label"`
	// Addr is the memory address involved, or 0 when the layer that
	// recorded the entry does not know one (protocol transitions).
	Addr uint64 `json:"addr"`
}

// Ring is a bounded event trace. A nil Ring and a Ring with capacity
// zero are both valid, permanently disabled traces: Append is a no-op.
type Ring struct {
	log Log[Entry]
}

// NewRing returns a trace holding the last capacity entries.
// Capacity <= 0 returns a disabled ring.
func NewRing(capacity int) *Ring {
	r := &Ring{}
	r.log.Init(capacity)
	return r
}

// Enabled reports whether Append records anything.
func (r *Ring) Enabled() bool { return r != nil && r.log.Cap() > 0 }

// Cap returns the ring's capacity.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return r.log.Cap()
}

// Total returns how many entries were ever appended, including those
// already overwritten.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.log.Total()
}

// Len returns how many entries the ring currently holds.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return r.log.Len()
}

// Reset discards every recorded entry and restarts sequence numbering
// from 1, returning the ring to its just-built state while keeping its
// buffer. A campaign reusing one kernel (and its attached tracer)
// across seeds resets the ring before each run so a failing seed's
// artifact carries exactly that run's trace — bit-identical to the
// trace a fresh single-seed run of the same configuration records,
// which is what lets replay compare tails entry-for-entry.
func (r *Ring) Reset() {
	if r.Enabled() {
		r.log.Reset()
	}
}

// Append records one entry, assigning it the next sequence number.
func (r *Ring) Append(tick uint64, component, label string, addr uint64) {
	if !r.Enabled() {
		return
	}
	r.log.Append(Entry{
		Tick: tick, Seq: r.log.Total() + 1, Component: component, Label: label, Addr: addr,
	})
}

// Last returns the most recent n entries, oldest first. It returns
// fewer when the ring holds fewer.
func (r *Ring) Last(n int) []Entry {
	if !r.Enabled() {
		return nil
	}
	return r.log.Last(n)
}

// Entries returns every held entry, oldest first.
func (r *Ring) Entries() []Entry { return r.Last(r.Len()) }

// RingSnapshot captures a ring's contents and sequence state; obtain
// via Snapshot, reinstate via Restore.
type RingSnapshot = LogSnapshot[Entry]

// Snapshot captures the ring's state (retained window and total), so a
// later Restore resumes recording exactly where the snapshot left off
// — same sequence numbers, same retained window. Nil for nil/disabled
// rings.
func (r *Ring) Snapshot() *RingSnapshot { return r.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling s, a snapshot of this ring the
// caller knows is dead (nil allocates).
func (r *Ring) SnapshotInto(s *RingSnapshot) *RingSnapshot {
	if !r.Enabled() {
		return nil
	}
	return r.log.SnapshotInto(s)
}

// Restore reinstates a state captured by Snapshot on this ring. The
// snapshot must come from a ring of the same capacity (nil restores a
// disabled ring's empty state, i.e. it is a no-op).
func (r *Ring) Restore(s *RingSnapshot) {
	if s == nil {
		r.Reset()
		return
	}
	r.log.Restore(s)
}
