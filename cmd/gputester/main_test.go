package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"drftest/internal/checker"
	"drftest/internal/core"
	"drftest/internal/explore"
	"drftest/internal/harness"
	"drftest/internal/viper"
)

// TestMain doubles as the gputester command: re-executing the test
// binary with DRFTEST_RUN_MAIN set runs main on its arguments, so the
// tests see its exit status and output. Set to divergentCapture, it
// runs main with a capture that sees the run's first failure a tick
// late.
func TestMain(m *testing.M) {
	switch os.Getenv("DRFTEST_RUN_MAIN") {
	case "":
		os.Exit(m.Run())
	case divergentCapture:
		replay = func(a *harness.Artifact) (*harness.Artifact, error) {
			a.Failures[0].Tick++
			return harness.Replay(a)
		}
	}
	main()
	os.Exit(0)
}

// divergentCapture is the DRFTEST_RUN_MAIN value under which the
// single run's capture diverges from the run.
const divergentCapture = "divergent-capture"

// TestCaptureRefusesDivergentRun: when the single run's capture does
// not reproduce the run, gputester says why on stderr, writes no
// artifact, and still exits 1 for the bug the run found.
func TestCaptureRefusesDivergentRun(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-bug", "lostwrite", "-caches", "small", "-seed", "1", "-wfs", "8", "-episodes", "8",
		"-actions", "30", "-syncvars", "4", "-datavars", "48", "-artifact-dir", dir)
	cmd.Env = append(os.Environ(), "DRFTEST_RUN_MAIN="+divergentCapture)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1\n%s", err, stderr.Bytes())
	}
	if !strings.Contains(stderr.String(), "failure diverged") {
		t.Errorf("stderr %q does not name the divergence", stderr.String())
	}
	if !strings.Contains(stdout.String(), "FAIL:") || strings.Contains(stdout.String(), "replay artifact written") {
		t.Errorf("want the FAIL report and no artifact line:\n%s", stdout.Bytes())
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("divergent capture wrote %d file(s)", len(files))
	}
}

// runMain runs gputester with args in a subprocess and returns its
// exit status and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	code, _, stderr := runMainOutput(t, args...)
	return code, stderr
}

// runMainOutput is runMain returning standard output too.
func runMainOutput(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "DRFTEST_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		return exit.ExitCode(), out.String(), errOut.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, out.String(), errOut.String()
}

// TestAxiomCheck: -axiomcheck checks the run with the online axiomatic
// checker. A clean run prints no violation and exits 0; a bug run
// prints as many violations as checker.Verify finds in the same seed's
// recorded trace, and exits 1.
func TestAxiomCheck(t *testing.T) {
	shape := []string{"-caches", "small", "-seed", "1", "-wfs", "8", "-episodes", "8",
		"-actions", "30", "-syncvars", "4", "-datavars", "48"}
	for _, bug := range []string{"", "nonatomic", "lostwrite"} {
		args := append([]string{"-axiomcheck"}, shape...)
		sysCfg := viper.SmallCacheConfig()
		sysCfg.NumCUs, sysCfg.NumL2Slices = 8, 1
		want := 0
		if bug != "" {
			args = append(args, "-bug", bug)
			var err error
			if sysCfg.Bugs, err = viper.ParseBug(bug); err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Seed, cfg.NumWavefronts, cfg.EpisodesPerThread = 1, 8, 8
			cfg.ActionsPerEpisode, cfg.NumSyncVars, cfg.NumDataVars = 30, 4, 48
			cfg.RecordTrace = true
			if want = len(checker.Verify(harness.NewGPURun(sysCfg, cfg).Tester.Run().Trace)); want == 0 {
				t.Fatalf("-bug %s: the recorded trace holds no violation to compare", bug)
			}
		}
		code, stdout, stderr := runMainOutput(t, args...)
		if wantCode := min(want, 1); code != wantCode {
			t.Errorf("-bug %q: exit %d, want %d\n%s", bug, code, wantCode, stderr)
		}
		if line := fmt.Sprintf(", %d violation(s)\n", want); !strings.Contains(stdout, "axiomatic check: ") || !strings.Contains(stdout, line) {
			t.Errorf("-bug %q: no axiomatic check line ending %q in\n%s", bug, line, stdout)
		}
	}
}

// TestBugFiredLine: a single run with -bug reports how many times the
// injected bug fired, as a text line and under -json; a run without
// one reports neither.
func TestBugFiredLine(t *testing.T) {
	shape := []string{"-caches", "small", "-seed", "1", "-wfs", "8", "-episodes", "8",
		"-actions", "30", "-syncvars", "4", "-datavars", "48"}
	for _, bug := range []string{"", "lostwrite", "nonatomic", "dropack", "staleacquire"} {
		args := shape
		if bug != "" {
			args = append([]string{"-bug", bug}, shape...)
		}
		_, text, _ := runMainOutput(t, args...)
		_, js, _ := runMainOutput(t, append([]string{"-json"}, args...)...)
		var rep struct {
			Bug      *string
			BugFired *uint64
		}
		if err := json.Unmarshal([]byte(js), &rep); err != nil {
			t.Fatalf("-bug %q: %v\n%s", bug, err, js)
		}
		if bug == "" {
			if strings.Contains(text, "fired") || rep.Bug != nil || rep.BugFired != nil {
				t.Errorf("a run without -bug reports a firing count:\n%s\n%s", text, js)
			}
			continue
		}
		if rep.Bug == nil || *rep.Bug != bug || rep.BugFired == nil || *rep.BugFired == 0 {
			t.Fatalf("-bug %s -json: bug %v fired %v, want %q fired at least once", bug, rep.Bug, rep.BugFired, bug)
		}
		if line := fmt.Sprintf("  bug %s: fired %d times\n", bug, *rep.BugFired); !strings.Contains(text, line) {
			t.Errorf("-bug %s: no line %q in\n%s", bug, line, text)
		}
	}
}

// TestRunAdmission: flags that build a configuration no run admits
// (harness.ValidateRun) — more CUs than event tags can name, a variable
// slab or trace ring no process can allocate, a write-through-only bug
// under the write-back L2 — exit 2 with one line naming the field, or
// the bug and the protocol, before anything is built, in every mode
// that runs the configuration.
func TestRunAdmission(t *testing.T) {
	for _, tc := range []struct {
		field string
		args  []string
	}{
		{"NumCUs", []string{"-cus", "5000"}},
		{"NumCUs", []string{"-campaign", "-cus", "5000"}},
		{"NumCUs", []string{"-explore", "-cus", "5000"}},
		{"NumCUs", []string{"-daemon", "http://127.0.0.1:1", "-cus", "5000"}},
		{"NumDataVars", []string{"-datavars", "17179869184"}},
		{"bug lostwrite is write-through only", []string{"-protocol", "wb", "-bug", "lostwrite"}},
		{"bug lostwrite is write-through only", []string{"-campaign", "-protocol", "wb", "-bug", "lostwrite"}},
		{"bug dropack is write-through only", []string{"-protocol", "wb", "-bug", "dropack"}},
		{"bug dropack is write-through only", []string{"-campaign", "-protocol", "wb", "-bug", "dropack"}},
		{"bug dropack is write-through only", []string{"-explore", "-protocol", "wb", "-bug", "dropack"}},
		{"traceDepth", []string{"-artifact-dir", t.TempDir(), "-trace-depth", "4000000000"}},
	} {
		code, stderr := runMain(t, tc.args...)
		if code != 2 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.field) {
			t.Errorf("gputester %s exited %d with %q; want 2 and one line naming %s",
				strings.Join(tc.args, " "), code, stderr, tc.field)
		}
	}
}

// TestValidateFlags pins flag admission: contradictory run modes,
// -axiomcheck on a campaign mode, exploration bounds below 1 and counts
// below their minimum are refused with an error naming the flag (main
// exits 2 on it), and every valid combination passes.
func TestValidateFlags(t *testing.T) {
	const d, b = explore.DefaultDepth, explore.DefaultBudget
	for _, tc := range []struct {
		name                  string
		explore, campaign     bool
		axioms                bool
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
		{name: "axiomcheck single run", axioms: true, depth: d, budget: b},
		{name: "axiomcheck explore", axioms: true, explore: true, depth: d, budget: b},
		{name: "axiomcheck campaign", axioms: true, campaign: true, depth: d, budget: b,
			want: "-axiomcheck with -campaign"},
		{name: "axiomcheck serve", axioms: true, serve: "127.0.0.1:0", depth: d, budget: b,
			want: "-axiomcheck with -serve"},
		{name: "axiomcheck worker", axioms: true, worker: "http://127.0.0.1:1", depth: d, budget: b,
			want: "-axiomcheck with -worker"},
		{name: "axiomcheck daemon", axioms: true, daemon: "http://127.0.0.1:1", depth: d, budget: b,
			want: "-axiomcheck with -daemon"},
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
			err := validateFlags(tc.explore, tc.campaign, tc.axioms, tc.serve, tc.worker, tc.daemon, tc.depth, tc.budget, tc.counts)
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
