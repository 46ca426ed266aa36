package explore

import (
	"runtime"
	"sync"
	"sync/atomic"

	"drftest/internal/harness"
	"drftest/internal/sim"
)

// Parallel exploration. A sleep-set tree partitions exactly: a node's
// children are its viable candidates, and the branch firing cands[i]
// starts from the node's own sleep set plus cands[0..i-1], whoever
// explores it and whenever. So the candidate range of any node can be
// split between workers, and the union of what they explore is what one
// worker would have explored.
//
// Work is held in tasks, each a contiguous interval of the serial DFS
// order: the root task is the whole tree; a task donated by a busy
// worker is the tail of its shallowest open candidate range, which
// directly follows the rest of the donor's interval. Tasks sit in a
// list in serial order, so the serial explorer's result is the sum of
// the tasks' counts up to the first violation or the budget's last
// path (see result).

// task is one contiguous interval of the serial DFS order: the subtrees
// of candidates [first, end) of the node at depth, which the script
// prefix reaches from the root, or the whole tree when depth < 0.
type task struct {
	prefix     []uint64
	depth      int
	cands      []sim.Enabled
	sleep      []sleeper
	first, end int
	// limit bounds the task's paths: the budget less the paths of
	// earlier tasks known when it was created.
	limit uint64
	// res counts what the task explored; violation is its first
	// violating schedule, and artifact that schedule's untraced
	// artifact when the tester (not only the stream checker) reported
	// it.
	res       Result
	violation *Violation
	artifact  *harness.Artifact
	// next is the following task in serial order. done and cancelled
	// are guarded by explorer.mu; cancelled is also read, atomically,
	// by the task's worker between schedules.
	next      *task
	done      bool
	cancelled atomic.Bool
}

// paths is how many schedules, completed or abandoned, the task cost.
func (t *task) paths() uint64 { return t.res.Schedules + t.res.PrunedPaths }

// explorer runs one exploration over Config.Workers engines. The
// calling goroutine's engine (main) explores the root task; the others
// are built lazily, once the first schedule has completed with budget
// left, and start as idle workers asking for work.
type explorer struct {
	cfg  *Config
	geom depGeom
	// replayBound is the package constant outside tests, which override
	// it to compare rewind policies.
	replayBound int
	// beforeReuse, when set, is handed each node and cut just before
	// their storage is refilled (the poison test's hook); onTerminal each
	// completed schedule's run before its verdict (the differential
	// test's). widen is keepAll outside the differential test's
	// mutations.
	beforeReuse func(any)
	onTerminal  func(*run)
	widen       widening

	main    *engine
	root    *task
	spawned bool
	helpers sync.WaitGroup

	mu   sync.Mutex
	wake sync.Cond
	// queue holds donated tasks no worker has taken yet; busy counts
	// the workers exploring a task and waiting those blocked in next.
	queue         []*task
	busy, waiting int
	over          bool
	// hungry is waiting less the queue's length: a busy worker donates
	// between schedules only while it is positive.
	hungry  atomic.Int32
	engines []*engine
}

func newExplorer(cfg Config) *explorer {
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultDepth
	}
	if cfg.Budget == 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	x := &explorer{
		cfg:         &cfg,
		geom:        newDepGeom(cfg.SysCfg),
		replayBound: replayBound,
		root:        &task{depth: -1, limit: cfg.Budget},
		busy:        1,
	}
	x.wake.L = &x.mu
	x.main = x.newEngine()
	return x
}

// explore runs the root task on the calling goroutine, then serves as
// one more idle worker until every task is explored, and merges the
// tasks' counts.
func (x *explorer) explore() (*Result, error) {
	e := x.main
	for t := x.root; t != nil; t = x.next(t) {
		e.runTask(t)
	}
	x.helpers.Wait()
	e.run.K.SetChooser(nil)
	return x.result()
}

// between is called by a worker after every schedule its task goes on
// from. The main worker builds the helpers after the first one, and any
// worker donates while some worker is idle.
func (x *explorer) between(e *engine) {
	if e == x.main && !x.spawned && x.cfg.Workers > 1 {
		x.spawned = true
		x.mu.Lock()
		for i := 1; i < x.cfg.Workers; i++ {
			// Counted as waiting already, so the main worker donates
			// while the helper builds its run.
			x.waiting++
			x.helpers.Add(1)
			go x.help()
		}
		x.setHungry()
		x.mu.Unlock()
	}
	if x.hungry.Load() > 0 {
		x.donate(e)
	}
}

// help is a helper worker: it builds its own run and explores the
// tasks it is handed until the exploration is over.
func (x *explorer) help() {
	defer x.helpers.Done()
	e := x.newEngine()
	x.mu.Lock()
	x.waiting--
	x.mu.Unlock()
	for t := x.next(nil); t != nil; t = x.next(t) {
		e.runTask(t)
	}
	e.run.K.SetChooser(nil)
}

// next settles the task a worker just finished (nil for none) and
// blocks until it can hand the worker another, or returns nil once no
// worker is busy and no task is queued: the exploration is over.
func (x *explorer) next(prev *task) *task {
	x.mu.Lock()
	defer x.mu.Unlock()
	if prev != nil {
		x.busy--
		prev.done = true
		x.settle()
	}
	for {
		for len(x.queue) > 0 {
			t := x.queue[0]
			x.queue = x.queue[1:]
			if t.cancelled.Load() {
				t.done = true
				continue
			}
			x.busy++
			x.setHungry()
			return t
		}
		if x.busy == 0 || x.over {
			x.over = true
			x.wake.Broadcast()
			return nil
		}
		x.waiting++
		x.setHungry()
		x.wake.Wait()
		x.waiting--
		x.setHungry()
	}
}

func (x *explorer) setHungry() { x.hungry.Store(int32(x.waiting - len(x.queue))) }

// settle cancels every task that follows, in serial order, the point
// where the serial explorer would already have stopped: a finished
// task's violation, or the budget's last path within the finished
// prefix of the list.
func (x *explorer) settle() {
	var paths uint64
	for t := x.root; t != nil && t.done; t = t.next {
		paths += t.paths()
		if t.violation != nil || paths >= x.cfg.Budget {
			for c := t.next; c != nil; c = c.next {
				c.cancelled.Store(true)
			}
			return
		}
	}
}

// donate hands an idle worker the tail of e's shallowest open candidate
// range: the range's upper half when e keeps an open range deeper down,
// else its upper half rounded down, so that the donor keeps work. The
// new task directly follows e's in serial order.
func (x *explorer) donate(e *engine) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.hungry.Load() <= 0 || e.task.cancelled.Load() {
		return
	}
	for d := e.base; d < e.depth; d++ {
		n := &e.nodes[d]
		left := n.end - n.next
		take := left / 2
		if e.openAbove(d) {
			take = (left + 1) / 2
		}
		if take == 0 {
			continue
		}
		t := &task{
			prefix: append([]uint64(nil), e.script[:n.scriptLen]...),
			depth:  d,
			cands:  append([]sim.Enabled(nil), n.cands...),
			sleep:  append([]sleeper(nil), n.sleep...),
			first:  n.end - take,
			end:    n.end,
			limit:  e.task.limit - e.task.paths(),
			next:   e.task.next,
		}
		n.end = t.first
		e.task.next = t
		x.queue = append(x.queue, t)
		x.setHungry()
		x.wake.Signal()
		return
	}
}

// openAbove reports whether a node deeper than d on e's stack still
// has candidates to explore.
func (e *engine) openAbove(d int) bool {
	for i := d + 1; i < e.depth; i++ {
		if n := &e.nodes[i]; n.next < n.end {
			return true
		}
	}
	return false
}

// result merges the tasks in serial order, as the serial explorer
// would have counted them: every task up to the first violation, or up
// to the path that spends the budget. That path may lie inside a task
// that explored past it; the task is then explored again on a fresh
// run, alone, up to exactly that path. Cuts, restores, replayed events
// and the host-time means cover all the work every engine did.
func (x *explorer) result() (*Result, error) {
	cfg := x.cfg
	res := &Result{Depth: cfg.Depth, Budget: cfg.Budget}
	var paths uint64
	for t := x.root; t != nil; t = t.next {
		if t.violation != nil && paths+t.paths() <= cfg.Budget {
			res.add(&t.res)
			res.Violation = t.violation
			if t.artifact != nil {
				if err := x.attach(res, t.artifact); err != nil {
					return nil, err
				}
			}
			break
		}
		if paths+t.paths() >= cfg.Budget {
			if k := cfg.Budget - paths; t.paths() > k {
				t = x.rerun(t, k)
			}
			res.add(&t.res)
			res.BudgetExhausted = true
			break
		}
		res.add(&t.res)
		paths += t.paths()
	}

	var cost hostCost
	for _, e := range x.engines {
		cost.cuts += e.cost.cuts
		cost.restores += e.cost.restores
		cost.replayed += e.cost.replayed
		cost.cutTime += e.cost.cutTime
		cost.rewindTime += e.cost.rewindTime
	}
	res.Cuts, res.Restores, res.ReplayedEvents = cost.cuts, cost.restores, cost.replayed
	if res.Cuts > 0 {
		res.NsPerCut = float64(cost.cutTime.Nanoseconds()) / float64(res.Cuts)
	}
	if res.Restores > 0 {
		res.NsPerRestore = float64(cost.rewindTime.Nanoseconds()) / float64(res.Restores)
	}
	if res.Candidates > 0 {
		res.SleepHitRate = float64(res.PrunedBranches) / float64(res.Candidates)
	}
	return res, nil
}

// add sums a task's exploration counts into r.
func (r *Result) add(t *Result) {
	r.Schedules += t.Schedules
	r.PrunedPaths += t.PrunedPaths
	r.PrunedBranches += t.PrunedBranches
	r.ChoicePoints += t.ChoicePoints
	r.Candidates += t.Candidates
	r.DepthLimited = r.DepthLimited || t.DepthLimited
	for len(r.FrontierDepths) < len(t.FrontierDepths) {
		r.FrontierDepths = append(r.FrontierDepths, 0)
	}
	for d, n := range t.FrontierDepths {
		r.FrontierDepths[d] += n
	}
}

// rerun explores t's interval again on a fresh engine, alone, up to
// its first k paths: the budget's last path lies there. An interval's
// paths come in serial order, so these are the ones t counted first.
func (x *explorer) rerun(t *task, k uint64) *task {
	again := &task{prefix: t.prefix, depth: t.depth, cands: t.cands, sleep: t.sleep,
		first: t.first, end: t.end, limit: k}
	e := x.newEngine()
	e.runTask(again)
	e.run.K.SetChooser(nil)
	return again
}

// attach makes the violating schedule's artifact by a checked replay
// of the engine's untraced one and writes it to the artifact directory
// when one is configured.
func (x *explorer) attach(res *Result, untraced *harness.Artifact) error {
	art, err := harness.Replay(untraced)
	if err != nil {
		return err
	}
	res.Artifact = art
	if x.cfg.ArtifactDir != "" {
		path, err := art.Write(x.cfg.ArtifactDir)
		if err != nil {
			return err
		}
		res.Violation.ArtifactPath = path
	}
	return nil
}
