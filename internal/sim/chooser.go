// Schedule choice points: the kernel-level seam the bounded exhaustive
// explorer (internal/explore) drives.
//
// The default event loop fires same-tick events in scheduling order — a
// single, deterministic interleaving. With a Chooser attached, the
// kernel instead treats the current tick's bucket — every event that is
// co-enabled now — as an enabled set and asks the Chooser which one
// fires next.
// The only ordering the kernel still enforces is per *unit*: events
// tagged with the same unit (one link's deliveries, one sequencer's
// responses) fire in scheduling order, because those components pair a
// prebound drain closure with an internal FIFO queue and reordering
// their events against each other would desynchronize the pairing, not
// model a real behavior. Untagged events all share pseudo-unit 0 and
// therefore keep their deterministic relative order — a conservative
// under-approximation that is always sound.
//
// Tags also carry an optional cache-line footprint, which is what the
// explorer's independence relation (events on disjoint lines of
// different units commute) is computed from. A tag is one uint64:
//
//	[63........44][43.................0]
//	 comp | unit    line address + 1 (0 = unknown footprint)
//
// The FIFO chooser reproduces the default order bit-for-bit; the
// script chooser replays a recorded schedule (the artifact `schedule`
// field) bit-identically.
package sim

import "fmt"

// Component classes for tag construction. Class 0 is reserved for
// untagged events.
const (
	CompLink      uint32 = 1 // network.Link message deliveries
	CompSequencer uint32 = 2 // viper.Sequencer response deliveries
	CompTester    uint32 = 3 // core tester wavefront issue rounds
	CompMemCtrl   uint32 = 4 // memctrl service/completion events
)

const (
	tagLineBits = 44
	tagLineMask = (uint64(1) << tagLineBits) - 1
	tagUnitBits = 16
	tagUnitMask = (uint32(1) << tagUnitBits) - 1
)

// MakeUnitTag builds an event tag carrying a component class and unit
// but no line footprint: the event stays ordered within its unit and
// is treated as dependent with everything by the explorer.
func MakeUnitTag(comp, unit uint32) uint64 {
	return (uint64(comp)<<tagUnitBits | uint64(unit&tagUnitMask)) << tagLineBits
}

// MakeLineTag builds an event tag carrying a component class, unit,
// and the cache-line address the event touches. Line addresses are
// stored +1 so a zero line field always means "unknown footprint"; an
// address too large for the field degrades to unknown, which is merely
// conservative.
func MakeLineTag(comp, unit uint32, lineAddr uint64) uint64 {
	t := MakeUnitTag(comp, unit)
	if lineAddr+1 > tagLineMask {
		return t
	}
	return t | (lineAddr + 1)
}

// TagUnit extracts a tag's component+unit key. Zero identifies the
// untagged pseudo-unit.
func TagUnit(tag uint64) uint64 { return tag >> tagLineBits }

// TagLine extracts a tag's line footprint. ok is false when the event
// declared no (or an unrepresentable) footprint.
func TagLine(tag uint64) (lineAddr uint64, ok bool) {
	lf := tag & tagLineMask
	if lf == 0 {
		return 0, false
	}
	return lf - 1, true
}

// NewUnit hands out a fresh unit ID for tag construction. Unit IDs are
// per-kernel and deliberately survive Reset — components (links,
// sequencers) outlive kernel resets, and a stale-but-unique ID is
// always sound. IDs wrap after 2^16 units, which merely merges
// ordering domains (conservative), never splits them.
func (k *Kernel) NewUnit() uint32 {
	k.unitSeq++
	return k.unitSeq & tagUnitMask
}

// Enabled describes one co-enabled candidate event offered to a
// Chooser: its global scheduling sequence number (the stable identity
// a schedule script records) and its tag.
type Enabled struct {
	Seq uint64
	Tag uint64
}

// Chooser picks which co-enabled event fires next. Choose is called
// once per fired event — even when only one candidate is enabled — so
// an explorer observes the complete event stream, which sleep-set
// maintenance needs. It must return an index into candidates; the
// candidate list is the per-unit heads of the enabled set, ordered by
// scheduling sequence (so candidates[0] is always the default FIFO
// pick). The slice is reused across calls and must not be retained.
//
// A Choose implementation may call Kernel.Stop to abandon the run; the
// chosen event is then not fired.
type Chooser interface {
	Choose(now Tick, candidates []Enabled) int
}

// SetChooser attaches (or, with nil, detaches) a schedule chooser.
// With no chooser the event loop is the plain deterministic FIFO loop,
// bit-for-bit identical to builds without choice points. Attaching a
// chooser mid-run is only valid between Run calls. Like the tracer,
// the chooser survives Reset.
func (k *Kernel) SetChooser(c Chooser) { k.chooser = c }

// FIFOChooser always picks the lowest-sequence candidate — the default
// deterministic order. A run under FIFOChooser is bit-identical to a
// run with no chooser at all (pinned by TestChooserFIFOBitIdentical).
type FIFOChooser struct{}

// Choose picks candidates[0], the global FIFO head.
func (FIFOChooser) Choose(Tick, []Enabled) int { return 0 }

// ScriptChooser replays a recorded schedule: at every choice point
// with more than one candidate it consumes the next recorded sequence
// number and picks the matching candidate. Single-candidate calls and
// calls past the end of the script fall back to FIFO order. A recorded
// sequence number that matches no candidate marks the replay diverged;
// the error is reported through Err rather than panicking so the
// caller can surface it after the run.
type ScriptChooser struct {
	script []uint64
	pos    int
	err    error
}

// NewScriptChooser builds a chooser replaying script (a sequence of
// chosen event sequence numbers, one per multi-candidate choice point,
// in execution order).
func NewScriptChooser(script []uint64) *ScriptChooser {
	return &ScriptChooser{script: script}
}

// Choose follows the script.
func (s *ScriptChooser) Choose(now Tick, cands []Enabled) int {
	if len(cands) < 2 || s.err != nil || s.pos >= len(s.script) {
		return 0
	}
	want := s.script[s.pos]
	s.pos++
	for i := range cands {
		if cands[i].Seq == want {
			return i
		}
	}
	s.err = fmt.Errorf("sim: schedule diverged at tick %d: scripted event seq %d not among %d candidates (script entry %d of %d)",
		now, want, len(cands), s.pos, len(s.script))
	return 0
}

// Err reports a divergence detected during replay, if any.
func (s *ScriptChooser) Err() error { return s.err }

// Consumed returns how many script entries have been consumed; a fully
// faithful replay consumes the whole script.
func (s *ScriptChooser) Consumed() int { return s.pos }

// choose offers the chooser the current tick's candidates and returns
// the slot that precedes its pick in the bucket (0: the pick heads it).
// Delay-0 schedules from a fired event join the bucket at its tail on
// their own — they carry higher seqs — so the bucket is always the
// complete enabled set.
func (k *Kernel) choose() (prev int32) {
	k.buildCandidates()
	i := k.chooser.Choose(k.now, k.candBuf)
	if k.stopped {
		return 0
	}
	if i < 0 || i >= len(k.candBuf) {
		panic(fmt.Sprintf("sim: Choose returned %d of %d candidates", i, len(k.candBuf)))
	}
	return k.candPrev[i]
}

// buildCandidates walks the current bucket (seq order) and collects the
// first event of each unit, with the slot before it: per-unit FIFO
// order is the one constraint choosers cannot override. candidates[0]
// is the global seq head.
func (k *Kernel) buildCandidates() {
	k.candBuf = k.candBuf[:0]
	k.candPrev = k.candPrev[:0]
	k.unitSeen = k.unitSeen[:0]
	prev := int32(0)
scan:
	for i := k.wheel[k.now&wheelMask].head; i != 0; prev, i = i, k.slab[i].next {
		e := &k.slab[i]
		u := TagUnit(e.tag)
		for _, seen := range k.unitSeen {
			if seen == u {
				continue scan
			}
		}
		k.unitSeen = append(k.unitSeen, u)
		k.candBuf = append(k.candBuf, Enabled{Seq: e.seq, Tag: e.tag})
		k.candPrev = append(k.candPrev, prev)
	}
}
