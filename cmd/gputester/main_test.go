package main

import (
	"strings"
	"testing"

	"drftest/internal/explore"
)

// TestValidateFlags pins flag admission: contradictory run modes,
// exploration bounds below 1 and counts below their minimum are
// refused with an error naming the flag (main exits 2 on it), and
// every valid combination passes.
func TestValidateFlags(t *testing.T) {
	const d, b = explore.DefaultDepth, explore.DefaultBudget
	for _, tc := range []struct {
		name                  string
		explore, campaign     bool
		serve, worker, daemon string
		depth                 int
		budget                uint64
		counts                []countFlag
		want                  string // "" = admitted; else a substring of the error
	}{
		{name: "single run", depth: d, budget: b},
		{name: "explore", explore: true, depth: d, budget: b},
		{name: "explore depth 1 budget 1", explore: true, depth: 1, budget: 1},
		{name: "campaign", campaign: true, depth: d, budget: b},
		{name: "explore and campaign", explore: true, campaign: true, depth: d, budget: b,
			want: "-explore and -campaign are mutually exclusive"},
		{name: "serve and worker", serve: "127.0.0.1:0", worker: "http://127.0.0.1:1", depth: d, budget: b,
			want: "-serve and -worker are mutually exclusive"},
		{name: "campaign and daemon", campaign: true, daemon: "http://127.0.0.1:1", depth: d, budget: b,
			want: "-campaign and -daemon are mutually exclusive"},
		{name: "explore depth 0", explore: true, depth: 0, budget: b, want: "-explore-depth 0"},
		{name: "explore depth -4", explore: true, depth: -4, budget: b, want: "-explore-depth -4"},
		{name: "explore budget 0", explore: true, depth: d, budget: 0, want: "-explore-budget 0"},
		{name: "counts at minimum", depth: d, budget: b,
			counts: []countFlag{{"cus", 1, 1}, {"actions", 2, 2}, {"datavars", 1, 1}}},
		{name: "cus 0", depth: d, budget: b, counts: []countFlag{{"cus", 0, 1}}, want: "-cus 0: must be at least 1"},
		{name: "cus -1", depth: d, budget: b, counts: []countFlag{{"cus", -1, 1}}, want: "-cus -1"},
		{name: "datavars 0", depth: d, budget: b, counts: []countFlag{{"wfs", 16, 1}, {"datavars", 0, 1}}, want: "-datavars 0"},
		{name: "datavars -5", depth: d, budget: b, counts: []countFlag{{"datavars", -5, 1}}, want: "-datavars -5"},
		{name: "wfs 0", depth: d, budget: b, counts: []countFlag{{"wfs", 0, 1}}, want: "-wfs 0"},
		{name: "lanes 0", depth: d, budget: b, counts: []countFlag{{"lanes", 0, 1}}, want: "-lanes 0"},
		{name: "episodes 0", depth: d, budget: b, counts: []countFlag{{"episodes", 0, 1}}, want: "-episodes 0"},
		{name: "syncvars 0", depth: d, budget: b, counts: []countFlag{{"syncvars", 0, 1}}, want: "-syncvars 0"},
		{name: "l2slices 0", depth: d, budget: b, counts: []countFlag{{"l2slices", 0, 1}}, want: "-l2slices 0"},
		{name: "actions 1", depth: d, budget: b, counts: []countFlag{{"actions", 1, 2}}, want: "-actions 1: must be at least 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.explore, tc.campaign, tc.serve, tc.worker, tc.daemon, tc.depth, tc.budget, tc.counts)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused a valid combination: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("admitted; want an error naming %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}
