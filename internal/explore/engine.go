package explore

import (
	"time"

	"drftest/internal/harness"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// depGeom holds the cache geometry the independence relation needs:
// two line-footprinted events only commute when their lines are
// distinct AND map to different sets at every cache level — same-set
// lines interact through replacement state (victim choice, LRU), so
// their order is observable protocol state.
type depGeom struct {
	lineSize uint64
	l1Sets   uint64
	l2Sets   uint64
}

func newDepGeom(c viper.Config) depGeom {
	return depGeom{
		lineSize: uint64(c.L1.LineSize),
		l1Sets:   uint64(c.L1.Sets()),
		l2Sets:   uint64(c.L2.Sets()),
	}
}

// conflict reports whether two line addresses can touch shared cache
// state.
func (g depGeom) conflict(la, lb uint64) bool {
	if la == lb {
		return true
	}
	a, b := la/g.lineSize, lb/g.lineSize
	return a%g.l1Sets == b%g.l1Sets || a%g.l2Sets == b%g.l2Sets
}

// dependent is the explorer's dependence relation over event tags.
// Everything is dependent unless both events declare a line footprint,
// belong to different ordering units, and their lines cannot conflict
// — the conservative direction is always "dependent", which costs
// exploration work but never soundness.
func (e *engine) dependent(aTag, bTag uint64) bool {
	if aTag == 0 || bTag == 0 {
		return true
	}
	if sim.TagUnit(aTag) == sim.TagUnit(bTag) && e.widen != dropSameUnit {
		return true
	}
	la, aok := sim.TagLine(aTag)
	lb, bok := sim.TagLine(bTag)
	if !aok || !bok {
		return true
	}
	if e.widen == dropSetCollision {
		return la == lb
	}
	return e.geom.conflict(la, lb)
}

// widening names a clause of dependent that a test drops to show the
// differential test catches an unsound, too-wide independence relation.
type widening uint8

const (
	keepAll widening = iota
	dropSameUnit
	dropSetCollision
)

// replayBound is the longest replay a rewind takes: a decision holds
// its own cut only when it is the root or more than replayBound Choose
// calls have passed since the nearest cut on its path. One full cut
// costs about as much host time as replaying 30 events.
const replayBound = 16

// node is one branching decision point on the DFS stack. The engine
// keeps one node per depth for the whole exploration: a node whose
// candidates are exhausted is dead, and the next decision at its depth
// refills its cut, candidate slice and sleep set.
type node struct {
	// cut is the full run-context snapshot taken from inside Choose,
	// before the decision fired: restoring it re-presents the identical
	// candidate set. Only nodes with cutAt equal to their own depth fill
	// it.
	cut harness.Checkpoint
	// cutAt is the depth of the node whose cut a rewind to this
	// decision restores: this node's own, or the nearest ancestor's
	// that holds one, from where the script replays up to here.
	cutAt int
	// cands are the viable (not-asleep) candidates; next indexes the
	// one the resumed Choose call takes.
	cands []sim.Enabled
	next  int
	// sleep is the live sleep set as it stood at this decision (the Z
	// of Godefroid's algorithm).
	sleep []sleeper
	// scriptLen is the schedule script's length at this decision, for
	// truncation on backtrack.
	scriptLen int
}

// sleeper is one sleeping event: its kernel sequence number and tag. A
// sleep set holds a handful of them, so it is a slice and membership is
// a scan.
type sleeper struct{ seq, tag uint64 }

func asleep(set []sleeper, seq uint64) bool {
	for _, s := range set {
		if s.seq == seq {
			return true
		}
	}
	return false
}

// engine is the DFS explorer; it implements sim.Chooser.
type engine struct {
	cfg  *Config
	run  *run
	geom depGeom

	// nodes[:depth] is the DFS stack; nodes past depth are dead and
	// kept for their storage.
	nodes  []*node
	depth  int
	script []uint64
	// live is the current path's sleep set: events that an
	// already-explored sibling branch fired first and nothing dependent
	// has executed since.
	live []sleeper
	// viable is Choose's scratch for the not-asleep candidates.
	viable []sim.Enabled
	// sinceCut counts the Choose calls since the nearest cut on the
	// current path.
	sinceCut int
	// resume marks a rewind in progress: a cut was just restored, and
	// Choose calls replay the script from pos up to the stack top's
	// decision, which then takes its next candidate.
	resume  bool
	pos     int
	aborted bool
	// cutTime and rewindTime total the host time spent in cuts and in
	// rewinds (restore plus replay), for the means in the result;
	// rewindStart is when the current rewind began.
	cutTime, rewindTime time.Duration
	rewindStart         time.Time
	res                 Result
	// replayBound is the package constant outside tests, which override
	// it to compare rewind policies.
	replayBound int
	// beforeReuse, when set, is handed each dead node just before the
	// next decision at its depth refills it (the poison test's hook).
	beforeReuse func(*node)
	// widen is keepAll outside the differential test's mutations.
	widen widening
}

// Choose implements sim.Chooser: it is called once per fired event and
// is where branching decision points are opened and, where the nearest
// cut lies more than replayBound calls back, snapshotted.
func (e *engine) Choose(now sim.Tick, cands []sim.Enabled) int {
	if e.resume {
		return e.replay(cands)
	}
	e.sinceCut++

	e.res.Candidates += uint64(len(cands))
	viable := cands
	if e.cfg.Prune && len(e.live) > 0 {
		viable = e.viable[:0]
		for _, c := range cands {
			if !asleep(e.live, c.Seq) {
				viable = append(viable, c)
			}
		}
		e.viable = viable
		if len(viable) == 0 {
			// Every candidate is asleep: any continuation is a
			// commuting reordering of an explored schedule. Abandon the
			// path.
			e.aborted = true
			e.res.PrunedPaths++
			e.run.K.Stop()
			return 0
		}
		e.res.PrunedBranches += uint64(len(cands) - len(viable))
	}

	if len(viable) > 1 && e.depth < e.cfg.Depth {
		if e.depth == len(e.nodes) {
			e.nodes = append(e.nodes, &node{})
			e.res.FrontierDepths = append(e.res.FrontierDepths, 0)
		}
		n := e.nodes[e.depth]
		if e.beforeReuse != nil {
			e.beforeReuse(n)
		}
		n.cands = append(n.cands[:0], viable...)
		n.next = 1
		n.sleep = append(n.sleep[:0], e.live...)
		n.scriptLen = len(e.script)
		if e.depth == 0 || e.sinceCut > e.replayBound {
			start := time.Now()
			e.run.CheckpointInto(&n.cut)
			e.cutTime += time.Since(start)
			e.res.Cuts++
			n.cutAt, e.sinceCut = e.depth, 0
		} else {
			n.cutAt = e.nodes[e.depth-1].cutAt
		}
		e.res.FrontierDepths[e.depth]++
		e.depth++
		e.res.ChoicePoints++
	} else if len(viable) > 1 {
		e.res.DepthLimited = true
	}

	return e.pick(cands, viable[0])
}

// replay re-fires the current path from the restored cut up to the
// stack top's decision, where the script position reaches its
// scriptLen: each multi-candidate call takes the script's next pick,
// each single-candidate call its only candidate. It counts only the
// replayed events, opens no node and leaves the sleep set alone;
// resumeChoose rebuilds that from the decision's own record.
func (e *engine) replay(cands []sim.Enabled) int {
	i := 0
	if len(cands) > 1 {
		if e.pos == e.nodes[e.depth-1].scriptLen {
			e.rewindTime += time.Since(e.rewindStart)
			return e.resumeChoose(cands)
		}
		i = index(cands, e.script[e.pos])
		e.pos++
	}
	e.sinceCut++
	e.res.ReplayedEvents++
	return i
}

// resumeChoose continues the stack top's decision with its next
// unexplored candidate: the sibling branch. Per Godefroid, the branch
// firing candidate i starts with sleep set
// {s ∈ Z ∪ {cands[0..i-1]} : s independent of cands[i]}.
func (e *engine) resumeChoose(cands []sim.Enabled) int {
	e.resume = false
	n := e.nodes[e.depth-1]
	chosen := n.cands[n.next]
	n.next++

	if e.cfg.Prune {
		// The candidates were viable, so none of them is in n.sleep.
		e.live = append(e.live[:0], n.sleep...)
		for _, c := range n.cands[:n.next-1] {
			e.live = append(e.live, sleeper{c.Seq, c.Tag})
		}
	}
	return e.pick(cands, chosen)
}

// pick records and returns the chosen candidate's index, waking every
// sleeping event that depends on it.
func (e *engine) pick(cands []sim.Enabled, chosen sim.Enabled) int {
	kept := e.live[:0]
	for _, s := range e.live {
		if s.seq != chosen.Seq && !e.dependent(s.tag, chosen.Tag) {
			kept = append(kept, s)
		}
	}
	e.live = kept
	if len(cands) > 1 {
		e.script = append(e.script, chosen.Seq)
	}
	return index(cands, chosen.Seq)
}

// index returns the position of the candidate with sequence number seq.
func index(cands []sim.Enabled, seq uint64) int {
	for i := range cands {
		if cands[i].Seq == seq {
			return i
		}
	}
	panic("explore: chosen candidate vanished from the candidate set")
}

// scheduleDone accounts for the schedule that just ended (completed or
// abandoned) and reports whether exploration must stop (violation
// found or budget exhausted).
func (e *engine) scheduleDone() (stop bool, err error) {
	if e.aborted {
		// Sleep-set-redundant path: already counted, no verdict.
		e.aborted = false
	} else {
		e.res.Schedules++
		e.run.Tester.Finish()
		if e.run.Tester.Violated() {
			rep := e.run.Tester.Report()
			v := &Violation{
				Schedule:         append([]uint64(nil), e.script...),
				StreamViolations: len(rep.StreamViolations),
			}
			if len(rep.Failures) > 0 {
				art, err := e.run.artifact(e.cfg, v.Schedule)
				if err != nil {
					return true, err
				}
				v.Failure = art.FirstFailure()
				e.res.Artifact = art
				if e.cfg.ArtifactDir != "" {
					path, werr := art.Write(e.cfg.ArtifactDir)
					if werr != nil {
						return true, werr
					}
					v.ArtifactPath = path
				}
			}
			e.res.Violation = v
			return true, nil
		}
	}
	if e.res.Schedules+e.res.PrunedPaths >= e.cfg.Budget {
		e.res.BudgetExhausted = true
		return true, nil
	}
	return false, nil
}

// backtrack rewinds to the deepest decision point with an unexplored
// candidate: it restores the cut that decision refers to and arms the
// replay up to it. No ancestor's cut is refilled while a descendant
// refers to it, because a depth is refilled only after everything below
// it is dead. It returns false when the stack is exhausted (the bounded
// space is fully enumerated).
func (e *engine) backtrack() bool {
	for ; e.depth > 0; e.depth-- {
		n := e.nodes[e.depth-1]
		if n.next < len(n.cands) {
			e.rewindStart = time.Now()
			c := e.nodes[n.cutAt]
			e.run.Restore(&c.cut)
			e.res.Restores++
			e.script = e.script[:n.scriptLen]
			e.pos, e.sinceCut = c.scriptLen, 0
			e.resume = true
			return true
		}
	}
	return false
}

// finish derives the result's cost figures once enumeration ends.
func (e *engine) finish() *Result {
	r := &e.res
	if r.Cuts > 0 {
		r.NsPerCut = float64(e.cutTime.Nanoseconds()) / float64(r.Cuts)
	}
	if r.Restores > 0 {
		r.NsPerRestore = float64(e.rewindTime.Nanoseconds()) / float64(r.Restores)
	}
	if r.Candidates > 0 {
		r.SleepHitRate = float64(r.PrunedBranches) / float64(r.Candidates)
	}
	return r
}
