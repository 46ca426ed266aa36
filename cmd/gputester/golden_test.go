package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"drftest/internal/golden"
)

// exploreClean is the reference exploration: the two-wavefront,
// two-variable config enumerated to depth 6.
var exploreClean = []string{"-explore", "-caches", "small", "-wfs", "2", "-lanes", "1",
	"-episodes", "1", "-actions", "6", "-syncvars", "1", "-datavars", "1", "-explore-depth", "6"}

// exploreBug is the same program with the non-atomic RMW injected: the
// explorer finds the duplicate atomic within depth 10.
var exploreBug = []string{"-explore", "-bug", "nonatomic", "-caches", "small", "-wfs", "2", "-lanes", "1",
	"-episodes", "1", "-actions", "6", "-syncvars", "1", "-datavars", "1", "-explore-depth", "10"}

// runExploreGolden runs gputester with args plus -workers (see
// runGolden).
func runExploreGolden(t *testing.T, args []string, workers string, bug bool) (out, artifact []byte) {
	t.Helper()
	return runGolden(t, append(append([]string(nil), args...), "-workers", workers), bug)
}

// runGolden runs gputester with args and, for a bug run, -artifact-dir:
// it returns the output with the artifact directory spelled
// ARTIFACT_DIR and the artifact's bytes (nil for a clean run).
func runGolden(t *testing.T, args []string, bug bool) (out, artifact []byte) {
	t.Helper()
	if !bug {
		return golden.RunMain(t, args...), nil
	}
	dir := t.TempDir()
	out = golden.RunMainExit(t, 1, append(append([]string(nil), args...), "-artifact-dir", dir)...)
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("%v: want one artifact in the artifact directory, found %v (%v)", args, files, err)
	}
	if artifact, err = os.ReadFile(files[0]); err != nil {
		t.Fatal(err)
	}
	return bytes.ReplaceAll(out, []byte(dir), []byte("ARTIFACT_DIR")), artifact
}

// TestGoldenRuns pins single runs and a campaign of both L2 protocols:
// write-through and write-back at the small and large cache configs, a
// banked write-back L2 with the coverage grid and heatmap, an injected
// write-back atomicity bug with its replay artifact, and a swarm
// campaign over write-back (its first batch draws the wide-jitter
// corner), byte for byte outside host time.
func TestGoldenRuns(t *testing.T) {
	campaign := []string{"-campaign", "-protocol", "wb", "-campaign-mode", "swarm", "-workers", "1",
		"-caches", "small", "-wfs", "8", "-episodes", "4", "-actions", "30", "-syncvars", "4",
		"-datavars", "256", "-batch", "8", "-max-seeds", "32"}
	type run struct {
		name    string
		args    []string
		formats []string
		bug     bool
	}
	both := []string{"txt", "json"}
	var runs []run
	for _, p := range []string{"wt", "wb"} {
		for _, c := range []string{"small", "large"} {
			runs = append(runs, run{p + "_" + c, []string{"-protocol", p, "-caches", c}, both, false})
		}
	}
	runs = append(runs,
		run{"wb_slices2_grid_heatmap", []string{"-protocol", "wb", "-l2slices", "2", "-grid", "-heatmap"}, []string{"txt"}, false},
		run{"wb_nonatomic", []string{"-protocol", "wb", "-bug", "nonatomic"}, []string{"txt"}, true},
		run{"campaign_wb_swarm", campaign, both, false},
	)
	for _, tc := range runs {
		for _, format := range tc.formats {
			args := tc.args
			if format == "json" {
				args = append(append([]string(nil), args...), "-json")
			}
			out, artifact := runGolden(t, args, tc.bug)
			golden.Check(t, "gputester_"+tc.name+"."+format, "gputester "+tc.name+" -"+format, out)
			if artifact != nil {
				golden.Check(t, "gputester_"+tc.name+"_artifact.json", "gputester "+tc.name+" artifact", artifact)
			}
		}
	}
}

// TestGoldenCampaigns pins write-through campaigns: the uniform, swarm
// and directed modes at a small shape, each at -workers 1 against its
// golden and at -workers 4 against the -workers 1 output; the fork
// strategy over the large configuration's 16-way arrays; and an
// injected lost write at the case study's shape (one seed, so one
// artifact), with its replay artifact.
func TestGoldenCampaigns(t *testing.T) {
	small := []string{"-caches", "small", "-wfs", "8", "-episodes", "4", "-actions", "30", "-syncvars", "4",
		"-datavars", "256", "-batch", "8", "-max-seeds", "32"}
	type run struct {
		name    string
		args    []string
		workers []string
		bug     bool
	}
	var runs []run
	for _, mode := range []string{"uniform", "swarm", "directed"} {
		runs = append(runs, run{"campaign_wt_" + mode,
			append([]string{"-campaign", "-campaign-mode", mode}, small...), []string{"1", "4"}, false})
	}
	runs = append(runs,
		run{"campaign_wt_fork_large", []string{"-campaign", "-campaign-fork", "-caches", "large", "-wfs", "8",
			"-episodes", "4", "-actions", "30", "-syncvars", "4", "-datavars", "256", "-batch", "8", "-max-seeds", "32"},
			[]string{"1"}, false},
		run{"campaign_wt_lostwrite", []string{"-campaign", "-bug", "lostwrite", "-caches", "small", "-wfs", "8",
			"-episodes", "8", "-actions", "30", "-syncvars", "4", "-datavars", "48", "-batch", "1", "-max-seeds", "1",
			"-trace-depth", "256"}, []string{"1"}, true},
	)
	for _, tc := range runs {
		for _, format := range []string{"txt", "json"} {
			args := tc.args
			if format == "json" {
				args = append(append([]string(nil), args...), "-json")
			}
			var first []byte
			for _, w := range tc.workers {
				out, artifact := runGolden(t, append(append([]string(nil), args...), "-workers", w), tc.bug)
				if first == nil {
					first = out
					golden.Check(t, "gputester_"+tc.name+"."+format, "gputester "+tc.name+" -"+format, out)
				} else if !bytes.Equal(golden.Mask(out), golden.Mask(first)) {
					t.Errorf("gputester %s -%s: -workers %s output differs from -workers %s:\n%s\nvs\n%s",
						tc.name, format, w, tc.workers[0], out, first)
				}
				if artifact != nil && format == "txt" {
					golden.Check(t, "gputester_"+tc.name+"_artifact.json", "gputester "+tc.name+" artifact", artifact)
				}
			}
		}
	}
}

// TestGoldenExplore pins gputester -explore at one worker: the text and
// -json reports of a clean exploration and of one that finds an
// injected bug, and the bug's replay artifact, byte for byte outside
// the mean cut and rewind times.
func TestGoldenExplore(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		bug  bool
	}{
		{"explore", exploreClean, false},
		{"explore_nonatomic", exploreBug, true},
	} {
		for _, format := range []string{"txt", "json"} {
			args := tc.args
			if format == "json" {
				args = append(append([]string(nil), args...), "-json")
			}
			out, artifact := runExploreGolden(t, args, "1", tc.bug)
			golden.Check(t, "gputester_"+tc.name+"."+format, "gputester "+tc.name+" -"+format, out)
			if artifact != nil && format == "txt" {
				golden.Check(t, "gputester_"+tc.name+"_artifact.json", "gputester "+tc.name+" artifact", artifact)
			}
		}
	}
}

// hostCost matches the explorer's fields that may move with the worker
// count: the cuts line of the text report, and the cut, rewind and
// replay counts under -json (the means are golden.HostTime already).
var hostCost = []*regexp.Regexp{
	regexp.MustCompile(`(?m)^(  cuts ).*$`),
	regexp.MustCompile(`("(?:cuts|restores|replayedEvents)": )\d+`),
}

func maskHostCost(out []byte) []byte {
	out = golden.Mask(out)
	for _, re := range hostCost {
		out = re.ReplaceAll(out, []byte("${1}"+golden.Masked))
	}
	return out
}

// TestExploreWorkersOutput: -workers 2 prints what -workers 1 prints,
// and writes the same artifact, once the host-cost fields are masked.
func TestExploreWorkersOutput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bug  bool
	}{
		{exploreClean, false},
		{exploreBug, true},
		{append(append([]string(nil), exploreBug...), "-json"), true},
	} {
		one, art1 := runExploreGolden(t, tc.args, "1", tc.bug)
		two, art2 := runExploreGolden(t, tc.args, "2", tc.bug)
		if !bytes.Equal(maskHostCost(one), maskHostCost(two)) {
			t.Errorf("%v: -workers 2 output differs from -workers 1:\n%s\nvs\n%s", tc.args, two, one)
		}
		if !bytes.Equal(art1, art2) {
			t.Errorf("%v: -workers 2 artifact differs from -workers 1", tc.args)
		}
	}
}
