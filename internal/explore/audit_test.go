package explore

import (
	"testing"

	"drftest/internal/audit"
)

// TestStateFieldAudits pins the explorer's state structs: a new field
// on the DFS engine or its stack nodes must declare how backtracking
// treats it — restored by the cut (a harness.Checkpoint, audited
// there), rebuilt per branch, or accumulated across the whole
// exploration — before it can land.
func TestStateFieldAudits(t *testing.T) {
	audit.Fields(t, node{}, map[string]string{
		"cut":       "branch: snapshot taken inside Choose before the decision fired, when the nearest cut lay more than replayBound calls back; restored to re-present the identical candidate set. Borrowed from the engine's free list, returned when the node dies",
		"from":      "branch: the cut a rewind here restores (own, the nearest cut-holding ancestor's, or the root cut), set when the decision is taken; that ancestor stays live as long as this node",
		"fromLen":   "branch: script length at from, where the rewind's replay starts",
		"cands":     "branch: viable candidates at the decision, fixed once taken (backing array reused per depth)",
		"next":      "branch: next sibling index, advanced by resumeChoose",
		"end":       "branch: end of the candidate range this engine owns; lowered when the range's tail is donated",
		"sleep":     "branch: sleep set as it stood at the decision (Godefroid's Z), copied into each sibling (backing array reused per depth)",
		"scriptLen": "branch: script length at the decision, truncation point on backtrack",
	})
	audit.Fields(t, engine{}, map[string]string{
		"x":           "config: the exploration the engine works for (config, hooks, task hand-off), shared by all workers",
		"run":         "config: system under exploration; its state is carried by cuts, not the engine",
		"task":        "dfs: task being explored, set by begin",
		"res":         "report: the task's counts, accumulated over the task and never rewound",
		"base":        "dfs: depth of the task's bottom node, set by begin; backtrack stops above it",
		"nodes":       "dfs: one node per depth ever reached; nodes[base:depth] is the stack, the rest dead storage awaiting reuse",
		"depth":       "dfs: stack height; raised by Choose and begin, lowered by backtrack",
		"root":        "dfs: cut at the run's first multi-candidate decision, taken once (by Choose at depth 0 or by the first replay); every task's rewind to its bottom node starts here",
		"rooted":      "dfs: root was taken",
		"free":        "dfs: cuts no live node refers to, refilled by the next cut",
		"viable":      "scratch: Choose's not-asleep filter, valid only within one call",
		"sinceCut":    "dfs: Choose calls since the nearest cut on the current path; zeroed by a cut and by backtrack, re-counted by the replay",
		"cost":        "report: cuts, rewinds, replayed events and their host time, over every task the engine served; never rewound",
		"rewindStart": "report: start of the rewind in progress, set by backtrack and begin",
		"script":      "dfs: current path's choice script, truncated to node.scriptLen on backtrack, set to the task's prefix by begin, and read by the replay",
		"live":        "dfs: current path's sleep set; rebuilt from node.sleep on resume, mutated by pick",
		"resume":      "dfs: armed by backtrack and begin, cleared when the replay reaches the stack top's decision",
		"pos":         "dfs: replay position in script, set by backtrack to the restored cut's fromLen",
		"aborted":     "dfs: set when a path is abandoned as sleep-set-redundant, cleared by scheduleDone",
	})
	audit.Fields(t, task{}, map[string]string{
		"prefix":    "start: script from the root to the task's bottom node, fixed at donation",
		"depth":     "start: the bottom node's depth (-1 for the root task)",
		"cands":     "start: the bottom node's viable candidates, all of them: each branch's sleep set needs its left siblings",
		"sleep":     "start: the bottom node's sleep set (Godefroid's Z)",
		"first":     "start: first candidate of the donated range",
		"end":       "start: end of the donated range at donation; the owner's node.end may fall below it later",
		"limit":     "start: upper bound on the paths the task may need, the budget less earlier tasks' paths known at donation",
		"res":       "report: the task's exploration counts (host cost is the engine's), written by its worker only, merged by result",
		"violation": "report: the task's first violating schedule",
		"failed":    "report: the violation has tester failures, so result builds its artifact",
		"next":      "order: following task in serial order, written under explorer.mu",
		"done":      "order: the task's worker finished it; under explorer.mu",
		"cancelled": "order: an earlier task ended the exploration; set under explorer.mu, polled by the worker",
	})
	audit.Fields(t, explorer{}, map[string]string{
		"cfg":         "config: exploration parameters with defaults filled in, fixed for the run",
		"geom":        "config: cache geometry for the independence relation, fixed at construction",
		"replayBound": "config: the replayBound constant; tests override it to compare rewind policies",
		"beforeReuse": "test hook: nil outside the poison test",
		"onTerminal":  "test hook: nil outside the differential and parallel tests",
		"widen":       "test hook: keepAll outside the differential test's mutations of dependent",
		"main":        "workers: the calling goroutine's engine, built first; it alone explores the root task and spawns the helpers",
		"root":        "order: the root task, head of the serial-order list",
		"spawned":     "workers: the helpers were started; read and written by main only",
		"helpers":     "workers: the helper goroutines, waited for before the merge",
		"mu":          "hand-off: guards the queue, counts, list order and done flags",
		"wake":        "hand-off: idle workers wait on it for a donation or the end",
		"queue":       "hand-off: donated tasks not yet taken",
		"busy":        "hand-off: workers exploring a task",
		"waiting":     "hand-off: workers blocked in next",
		"over":        "hand-off: no worker busy and nothing queued: the exploration is over",
		"hungry":      "hand-off: waiting less the queue's length, polled by busy workers between schedules",
		"engines":     "report: every engine built, whose costs result sums",
	})
	audit.Fields(t, run{}, map[string]string{
		"GPURun":  "config: system and tester under exploration (snapshotted via cuts); untraced, so Ring is nil",
		"testCfg": "config: effective tester config (StreamCheck forced on, the caller's StreamInline), embedded in violation artifacts; the run's own tester additionally folds inline",
	})
}

// TestNoMaps pins that the DFS state holds no Go map (see
// audit.NoMaps): sleep sets are slices, and a node's cut is a
// harness.Checkpoint, audited there.
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, engine{}, "Store.far")
	audit.NoMaps(t, node{})
}
