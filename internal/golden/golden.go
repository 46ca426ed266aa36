// Package golden compares a command's output with a committed copy
// under the test's testdata/golden/ directory: the byte-identity
// invariant (fixed flags ⇒ fixed output) as a test. Host time is the
// one thing a run may not reproduce; HostTime names every field that
// carries it, and Mask blanks them on both sides of the comparison.
//
// Regenerate a package's files with `go test -run Golden -update` in
// it (the flag is defined only in test binaries that import golden).
package golden

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from this run's output")

// HostTime lists every output field that is host time, not a result:
// Mask replaces each pattern's match with its first submatch followed
// by Masked.
var HostTime = []*regexp.Regexp{
	// Fig. 9: the wall column of each application row and the (UNION)
	// total (app, L1 cov, L2 cov, sim events, wall). The column's
	// padding goes too, since its width follows the value's.
	regexp.MustCompile(`(?m)^(  \S+ +[\d.]+% +[\d.]+% +\d+ ) *\S+$`),
	// Fig. 8: the wall column of each tester run's row (run, caches,
	// L1 cov, L2 cov, sim events, wall); its (UNION) row is Fig. 9's.
	regexp.MustCompile(`(?m)^(  Test \d+ +\S+ +[\d.]+% +[\d.]+% +\d+ ) *\S+$`),
	// figures -exp speed: the two sides' wall times (with their
	// padding, as in Fig. 9), the wall-clock speedup and the full
	// sweep's total.
	regexp.MustCompile(`(?m)(^  \S+ \([^)]*\) *: +\d+ sim events ) *\S+`),
	regexp.MustCompile(`(?m)(^  speedup to similar coverage \(wall clock\): )\S+$`),
	regexp.MustCompile(`(?m)(^  full-sweep tester cost .*: \d+ events, )\S+$`),
	// gputester -explore: the mean cut and rewind times of the text
	// report's cuts line, and the same means under -json.
	regexp.MustCompile(`(\(mean )[\d.]+`),
	regexp.MustCompile(`("nsPer(?:Cut|Restore)": )[^,\n]+`),
	// cputester: the wall time beside the sim ticks.
	regexp.MustCompile(`(?m)(^  sim ticks +\d+, wall )\S+$`),
	// gputester: a single run's wall time line, a campaign's rate and
	// wall beside its seed count, and both under -json.
	regexp.MustCompile(`(?m)(^  wall time +)\S+$`),
	regexp.MustCompile(`(\()[\d.]+ seeds/sec, wall [^)]*`),
	regexp.MustCompile(`("(?:wallSeconds|seedsPerSec)": )[^,\n]+`),
}

// Masked stands in for a host-time field.
const Masked = "<host-time>"

// Mask returns out with every HostTime field replaced by Masked.
func Mask(out []byte) []byte {
	for _, re := range HostTime {
		out = re.ReplaceAll(out, []byte("${1}"+Masked))
	}
	return out
}

// Check compares got, masked, with testdata/golden/name; with -update
// it writes the file instead. A mismatch names the command (cmd) and
// the first differing line.
func Check(t *testing.T, name, cmd string, got []byte) {
	t.Helper()
	got = Mask(got)
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", cmd, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of output)"
	}
	t.Fatalf("%s: output differs from %s at line %d:\n got: %q\nwant: %q", cmd, path, i+1, line(g), line(w))
}

// RunMainEnv is the environment variable under which a command's test
// binary runs the command's main instead of its tests (see RunMain).
const RunMainEnv = "DRFTEST_RUN_MAIN"

// RunMain re-executes the test binary as the command under test — its
// TestMain runs main when RunMainEnv is set — with args, and returns
// the command's standard output. A non-zero exit fails the test.
func RunMain(t *testing.T, args ...string) []byte {
	t.Helper()
	return RunMainExit(t, 0, args...)
}

// RunMainExit is RunMain for a command expected to exit with code (a
// failing verdict's 1, say); any other exit status fails the test.
func RunMainExit(t *testing.T, code int, args ...string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), RunMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit) && exit.ExitCode() == code:
	case err == nil && code == 0:
	default:
		t.Fatalf("%s: %v (want exit status %d)\n%s", strings.Join(args, " "), err, code, stderr.Bytes())
	}
	return stdout.Bytes()
}
