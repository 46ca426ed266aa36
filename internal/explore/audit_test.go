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
		"cut":       "branch: snapshot taken inside Choose before the decision fired; restored to re-present the identical candidate set. Held by value: the depth's next decision refills its storage",
		"cands":     "branch: viable candidates at the decision, fixed once taken (backing array reused per depth)",
		"next":      "branch: next sibling index, advanced by resumeChoose",
		"sleep":     "branch: sleep set as it stood at the decision (Godefroid's Z), copied into each sibling (backing array reused per depth)",
		"scriptLen": "branch: script length at the decision, truncation point on backtrack",
	})
	audit.Fields(t, engine{}, map[string]string{
		"cfg":         "config: exploration parameters, fixed for the run",
		"run":         "config: system under exploration; its state is carried by cuts, not the engine",
		"geom":        "config: cache geometry for the independence relation, fixed at construction",
		"nodes":       "dfs: one node per depth ever reached; nodes[:depth] is the stack, the rest dead storage awaiting reuse",
		"depth":       "dfs: stack height; raised by Choose, lowered by backtrack",
		"viable":      "scratch: Choose's not-asleep filter, valid only within one call",
		"cutTime":     "report: host time spent taking cuts, never rewound",
		"restoreTime": "report: host time spent restoring cuts, never rewound",
		"script":      "dfs: current path's choice script, truncated to node.scriptLen on backtrack",
		"live":        "dfs: current path's sleep set; rebuilt from node.sleep on resume, mutated by pick",
		"resume":      "dfs: armed by backtrack, consumed by the next Choose call",
		"aborted":     "dfs: set when a path is abandoned as sleep-set-redundant, cleared by scheduleDone",
		"res":         "report: accumulates across the whole exploration, never rewound",
		"beforeReuse": "test hook: nil outside the poison test",
	})
	audit.Fields(t, run{}, map[string]string{
		"GPURun":  "config: system, tester and trace ring under exploration (snapshotted via cuts)",
		"testCfg": "config: effective tester config (StreamCheck forced on, the caller's StreamInline), embedded in violation artifacts; the run's own tester additionally folds inline",
	})
}

// TestNoMaps pins that the DFS state holds no Go map (see
// audit.NoMaps): sleep sets are slices, and a node's cut is a
// harness.Checkpoint, audited there.
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, engine{}, "Store.far", "Collector.matrices")
	audit.NoMaps(t, node{})
}
