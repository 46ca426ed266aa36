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
func (x *explorer) dependent(aTag, bTag uint64) bool {
	if aTag == 0 || bTag == 0 {
		return true
	}
	if sim.TagUnit(aTag) == sim.TagUnit(bTag) && x.widen != dropSameUnit {
		return true
	}
	la, aok := sim.TagLine(aTag)
	lb, bok := sim.TagLine(bTag)
	if !aok || !bok {
		return true
	}
	if x.widen == dropSetCollision {
		return la == lb
	}
	return x.geom.conflict(la, lb)
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
// refills its candidate slice and sleep set.
type node struct {
	// cut is the full run-context snapshot this decision took from
	// inside Choose, before the decision fired, or nil when a rewind
	// here replays from an ancestor's cut. It comes from the engine's
	// free list and goes back to it when the node dies.
	cut *harness.Checkpoint
	// from is the cut a rewind to this decision restores (this node's
	// own, the nearest cut-holding ancestor's, or the engine's root
	// cut), and fromLen the script length at it, from where the script
	// replays up to here.
	from    *harness.Checkpoint
	fromLen int
	// cands are the viable (not-asleep) candidates; next indexes the
	// one the resumed Choose call takes, and end bounds the range this
	// engine owns: a donation to an idle worker lowers it.
	cands     []sim.Enabled
	next, end int
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

// engine is one worker's DFS explorer over its own run; it implements
// sim.Chooser. It explores one task at a time (see parallel.go).
type engine struct {
	x   *explorer
	run *run

	// task is the task being explored and res its counts; base is the
	// depth of the task's bottom node, below which backtrack never goes.
	task *task
	res  *Result
	base int
	// nodes[base:depth] is the DFS stack; nodes past depth are dead and
	// kept for their storage.
	nodes []node
	depth int
	// root is the cut at the run's first multi-candidate decision,
	// where every task's replay starts; rooted reports it was taken.
	root   harness.Checkpoint
	rooted bool
	// free holds the cuts no live node refers to.
	free   []*harness.Checkpoint
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
	// cost is what the engine's cuts and rewinds cost, whatever task
	// they served; rewindStart is when the current rewind began.
	cost        hostCost
	rewindStart time.Time
}

// hostCost counts an engine's full cuts, its rewinds and the events
// they replayed, and totals the host time spent in cuts and in rewinds
// (restore plus replay), for the result's cost fields.
type hostCost struct {
	cuts, restores, replayed uint64
	cutTime, rewindTime      time.Duration
}

// newEngine builds a worker's run with the engine attached as its
// chooser.
func (x *explorer) newEngine() *engine {
	e := &engine{x: x, run: newRun(x.cfg)}
	e.run.K.SetChooser(e)
	x.mu.Lock()
	x.engines = append(x.engines, e)
	x.mu.Unlock()
	return e
}

// runTask explores t depth-first until its range is exhausted or it
// must stop (violation, budget, cancellation), then frees its stack.
func (e *engine) runTask(t *task) {
	e.begin(t)
	for {
		e.run.K.RunUntilIdle()
		if e.scheduleDone() || !e.backtrack() {
			break
		}
	}
	for ; e.depth > e.base; e.depth-- {
		e.release(&e.nodes[e.depth-1])
	}
	e.depth = 0
}

// begin arms the engine for t. The root task starts the run; any other
// task rebuilds its bottom node from t and rewinds to it: the root cut
// restored (taken on the way, by replay, on the engine's first task)
// and t's script prefix replayed.
func (e *engine) begin(t *task) {
	e.task, e.res = t, &t.res
	e.script = append(e.script[:0], t.prefix...)
	e.live = e.live[:0]
	e.aborted = false
	if t.depth < 0 {
		e.base, e.depth, e.resume = 0, 0, false
		e.run.Tester.Start()
		return
	}
	e.base, e.depth = t.depth, t.depth+1
	n := e.open(t.depth)
	n.cut, n.from, n.fromLen = nil, &e.root, 0
	n.cands = append(n.cands[:0], t.cands...)
	n.next, n.end = t.first, t.end
	n.sleep = append(n.sleep[:0], t.sleep...)
	n.scriptLen = len(t.prefix)
	e.rewindStart = time.Now()
	e.resume, e.pos, e.sinceCut = true, 0, 0
	if e.rooted {
		e.run.Restore(&e.root)
		e.cost.restores++
	} else {
		e.run.Tester.Start()
	}
}

// open returns the node storage at depth d, growing the stack as
// needed and handing the reused node to the poison hook.
func (e *engine) open(d int) *node {
	for len(e.nodes) <= d {
		e.nodes = append(e.nodes, node{})
	}
	n := &e.nodes[d]
	if e.x.beforeReuse != nil {
		e.x.beforeReuse(n)
	}
	return n
}

// checkpoint takes a full cut into c.
func (e *engine) checkpoint(c *harness.Checkpoint) {
	start := time.Now()
	e.run.CheckpointInto(c)
	e.cost.cutTime += time.Since(start)
	e.cost.cuts++
	e.sinceCut = 0
}

// acquire returns a cut from the free list, or a fresh one.
func (e *engine) acquire() *harness.Checkpoint {
	k := len(e.free)
	if k == 0 {
		return &harness.Checkpoint{}
	}
	c := e.free[k-1]
	e.free = e.free[:k-1]
	if e.x.beforeReuse != nil {
		e.x.beforeReuse(c)
	}
	return c
}

// release returns a dying node's own cut to the free list.
func (e *engine) release(n *node) {
	if n.cut != nil {
		e.free = append(e.free, n.cut)
		n.cut = nil
	}
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
	if e.x.cfg.Prune && len(e.live) > 0 {
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

	if len(viable) > 1 && e.depth < e.x.cfg.Depth {
		n := e.open(e.depth)
		n.cands = append(n.cands[:0], viable...)
		n.next, n.end = 1, len(viable)
		n.sleep = append(n.sleep[:0], e.live...)
		n.scriptLen = len(e.script)
		n.cut = nil
		switch {
		case e.depth == 0:
			e.checkpoint(&e.root)
			e.rooted = true
			n.from, n.fromLen = &e.root, 0
		case e.sinceCut > e.x.replayBound:
			n.cut = e.acquire()
			e.checkpoint(n.cut)
			n.from, n.fromLen = n.cut, n.scriptLen
		default:
			p := &e.nodes[e.depth-1]
			n.from, n.fromLen = p.from, p.fromLen
		}
		for len(e.res.FrontierDepths) <= e.depth {
			e.res.FrontierDepths = append(e.res.FrontierDepths, 0)
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
// resumeChoose rebuilds that from the decision's own record. The first
// multi-candidate call an engine ever replays is the run's first
// decision, where it takes its root cut.
func (e *engine) replay(cands []sim.Enabled) int {
	i := 0
	if len(cands) > 1 {
		if !e.rooted {
			e.checkpoint(&e.root)
			e.rooted = true
		}
		if e.pos == e.nodes[e.depth-1].scriptLen {
			e.cost.rewindTime += time.Since(e.rewindStart)
			return e.resumeChoose(cands)
		}
		i = index(cands, e.script[e.pos])
		e.pos++
	}
	e.sinceCut++
	e.cost.replayed++
	return i
}

// resumeChoose continues the stack top's decision with its next
// unexplored candidate: the sibling branch. Per Godefroid, the branch
// firing candidate i starts with sleep set
// {s ∈ Z ∪ {cands[0..i-1]} : s independent of cands[i]}.
func (e *engine) resumeChoose(cands []sim.Enabled) int {
	e.resume = false
	n := &e.nodes[e.depth-1]
	chosen := n.cands[n.next]
	n.next++

	if e.x.cfg.Prune {
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
		if s.seq != chosen.Seq && !e.x.dependent(s.tag, chosen.Tag) {
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
// abandoned) and reports whether the task must stop: a violation found,
// the task's budget share spent, or the task cancelled because an
// earlier task in serial order ended the exploration. Between
// schedules it serves idle workers (explorer.between).
func (e *engine) scheduleDone() (stop bool) {
	t := e.task
	if e.aborted {
		// Sleep-set-redundant path: already counted, no verdict.
		e.aborted = false
	} else {
		if e.x.onTerminal != nil {
			e.x.onTerminal(e.run)
		}
		e.res.Schedules++
		e.run.Tester.Finish()
		if e.run.Tester.Violated() {
			rep := e.run.Tester.Report()
			t.violation = &Violation{
				Schedule:         append([]uint64(nil), e.script...),
				StreamViolations: len(rep.StreamViolations),
			}
			if len(rep.Failures) > 0 {
				// The run is untraced: explorer.attach replays this
				// artifact to make the traced one.
				t.artifact = harness.NewGPUArtifact(e.x.cfg.SysCfg, e.run.testCfg, e.run.Tester, rep, nil)
				t.artifact.TraceCapacity = e.x.cfg.TraceDepth
				t.artifact.Schedule = t.violation.Schedule
				t.violation.Failure = t.artifact.FirstFailure()
			}
			return true
		}
	}
	if e.res.Schedules+e.res.PrunedPaths >= t.limit || t.cancelled.Load() {
		return true
	}
	e.x.between(e)
	return false
}

// backtrack rewinds to the deepest decision point with an unexplored
// candidate: it restores the cut that decision refers to and arms the
// replay up to it. No ancestor's cut is released while a descendant
// refers to it, because a node dies only after everything above it on
// the stack. It returns false when the task's stack is exhausted.
func (e *engine) backtrack() bool {
	for ; e.depth > e.base; e.depth-- {
		n := &e.nodes[e.depth-1]
		if n.next < n.end {
			e.rewindStart = time.Now()
			e.run.Restore(n.from)
			e.cost.restores++
			e.script = e.script[:n.scriptLen]
			e.pos, e.sinceCut = n.fromLen, 0
			e.resume = true
			return true
		}
		e.release(n)
	}
	return false
}
