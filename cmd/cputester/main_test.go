package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"drftest/internal/golden"
)

// TestMain doubles as the cputester command: re-executing the test
// binary with DRFTEST_RUN_MAIN set runs main on its arguments, so the
// tests see its exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("DRFTEST_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs cputester with args in a subprocess and returns its
// exit status and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "DRFTEST_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestRunAdmission: flags that build a configuration no CPU run admits
// (harness.ValidateCPURun) — no CPUs or a negative count of them, more
// than the directory's sharer mask holds, negative counts, a trace ring
// no process can allocate — exit 2 with one line naming the field
// before anything is built; a tiny valid run passes.
func TestRunAdmission(t *testing.T) {
	for _, tc := range []struct {
		field string
		args  []string
	}{
		{"numCPUs", []string{"-cpus", "-3"}},
		{"numCPUs", []string{"-cpus", "0"}},
		{"numCPUs", []string{"-cpus", "65"}},
		{"OpsPerCPU", []string{"-ops", "-1"}},
		{"NumLocations", []string{"-locations", "-1"}},
		{"traceDepth", []string{"-artifact-dir", t.TempDir(), "-trace-depth", "4000000000"}},
	} {
		code, stderr := runMain(t, tc.args...)
		if code != 2 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.field) {
			t.Errorf("cputester %s exited %d with %q; want 2 and one line naming %s",
				strings.Join(tc.args, " "), code, stderr, tc.field)
		}
	}
	if code, stderr := runMain(t, "-cpus", "2", "-ops", "50"); code != 0 {
		t.Errorf("a tiny valid run exited %d: %s", code, stderr)
	}
}

// TestGoldenDefaults and TestGoldenLargeGrid: the MOESI caches and the
// directory without a GPU print the committed reports, byte for byte
// outside host time — the default run, and eight CPUs over large
// caches with the directory's classification grid.
func TestGoldenDefaults(t *testing.T) {
	golden.Check(t, "cputester_defaults.txt", "cputester", golden.RunMain(t))
}

func TestGoldenLargeGrid(t *testing.T) {
	golden.Check(t, "cputester_cpus8_large_grid.txt", "cputester -cpus 8 -caches large -grid",
		golden.RunMain(t, "-cpus", "8", "-caches", "large", "-grid"))
}
