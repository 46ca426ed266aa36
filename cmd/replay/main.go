// Command replay re-executes a failure-replay artifact written by
// gputester or cputester (-artifact-dir) and asserts the failure
// reproduces bit-identically: same failure kind, tick, address and
// values, same op counts, same final RNG state, and the same execution
// trace tail.
//
// Usage:
//
//	replay [-trace] [-json] [-bisect] [-bisect-every N] [-store DIR]
//	       artifact.json|sha256:HASH|HASHPREFIX...
//
// With -store pointing at a campaign daemon's content-addressed
// artifact store, arguments may also be object hashes — full
// "sha256:<hex>", the bare hex, or any unique prefix (≥4 digits), like
// git abbreviated object names — resolved through the store index. A
// -bisect run with -store writes the minimized artifact back into the
// store as a new content-addressed object whose index entry records
// the source hash as provenance (minimizedFrom), instead of a loose
// "<artifact>.min.json" file.
//
// With -bisect (GPU artifacts only), the replay additionally runs a
// checkpointed pass that binary-searches the run for its first failing
// tick — the tick a value check first fails, or the tick forward
// progress ceases for a deadlock (which the deadlock report itself
// trails by up to a heartbeat period) — and writes a minimized
// companion artifact ("<artifact>.min.json") whose trace is cut to the
// reproducing suffix from that tick on. The minimized artifact is
// itself re-replayed and verified before replay reports success.
// -bisect-every overrides the checkpoint cadence in ticks (default:
// adaptive, about 64 checkpoints across the run). An artifact
// checkpointed replay cannot drive — a CPU artifact, or one that pins
// an explored schedule (a checkpoint does not capture the script's
// position) — is replayed and checked only, and the output says
// bisection was skipped and why.
//
// Exit status:
//
//	0 — every artifact reproduced (and, with -bisect, bisected and
//	    minimized to a still-reproducing artifact)
//	1 — any artifact diverged, no longer fails, or failed to bisect
//	2 — usage errors, or an artifact that cannot be loaded
//
// This closes the paper's debugging loop: the tester finds a
// coherence violation autonomously, and the artifact pins the exact
// run so the protocol designer can re-execute it — under a debugger,
// with extra logging, or after a candidate fix (where replay's exit
// status 1 with "replay found no failure" is the fix confirmation).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"drftest/internal/campaignd"
	"drftest/internal/harness"
	"drftest/internal/sim"
)

// result is one artifact's outcome, the unit of -json output.
type result struct {
	Path       string                  `json:"path"`
	Hash       string                  `json:"hash,omitempty"`
	Kind       string                  `json:"kind"`
	Seed       uint64                  `json:"seed"`
	Failure    harness.ArtifactFailure `json:"failure"`
	Reproduced bool                    `json:"reproduced"`
	// ScheduleLen is the number of recorded schedule choices pinned by
	// the artifact (0 for default-order artifacts).
	ScheduleLen int    `json:"scheduleLen,omitempty"`
	Error       string `json:"error,omitempty"`

	Bisect              *harness.BisectResult `json:"bisect,omitempty"`
	MinimizedPath       string                `json:"minimizedPath,omitempty"`
	MinimizedHash       string                `json:"minimizedHash,omitempty"`
	MinimizedReproduced bool                  `json:"minimizedReproduced,omitempty"`
	// BisectSkipped says why -bisect only replayed this artifact.
	BisectSkipped string `json:"bisectSkipped,omitempty"`
}

func main() {
	showTrace := flag.Bool("trace", false, "print the artifact's execution-trace tail")
	asJSON := flag.Bool("json", false, "emit one JSON result object per artifact instead of text")
	bisect := flag.Bool("bisect", false, "bisect each artifact to its first failing tick and write a minimized companion artifact")
	bisectEvery := flag.Uint64("bisect-every", 0, "checkpoint cadence in ticks for -bisect (0 = adaptive)")
	storeDir := flag.String("store", "", "resolve artifact hashes through this content-addressed store (and write minimized artifacts back into it)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: replay [-trace] [-json] [-bisect] [-bisect-every N] [-store DIR] artifact.json|hash...")
		os.Exit(2)
	}
	var store *campaignd.Store
	if *storeDir != "" {
		var err error
		if store, err = campaignd.OpenStore(*storeDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	failed, loadFailed := 0, 0
	var results []result
	for _, arg := range flag.Args() {
		path, hash, err := resolveArg(store, arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", arg, err)
			loadFailed++
			continue
		}
		res, loadErr := replayOne(path, hash, store, *showTrace && !*asJSON, *bisect, sim.Tick(*bisectEvery), *asJSON)
		if loadErr != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, loadErr)
			loadFailed++
			continue
		}
		if res.Error != "" {
			if !*asJSON {
				fmt.Fprintf(os.Stderr, "%s: %s\n", path, res.Error)
			}
			failed++
		}
		results = append(results, *res)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	switch {
	case loadFailed > 0:
		os.Exit(2)
	case failed > 0:
		if !*asJSON {
			fmt.Printf("\n%d of %d artifact(s) did NOT reproduce\n", failed, flag.NArg())
		}
		os.Exit(1)
	}
}

// resolveArg maps one command-line argument to an artifact path: an
// existing file wins; otherwise, with -store, the argument is treated
// as an object hash or unique hash prefix and resolved through the
// store index.
func resolveArg(store *campaignd.Store, arg string) (path, hash string, err error) {
	if _, statErr := os.Stat(arg); statErr == nil {
		return arg, "", nil
	}
	if store == nil {
		return "", "", fmt.Errorf("no such file (pass -store to resolve artifact hashes)")
	}
	hash, path, err = store.Resolve(arg)
	return path, hash, err
}

// replayOne loads, replays, and (optionally) bisects one artifact.
// A load/validation error returns (nil, err) — the exit-2 class; any
// divergence after that is reported in result.Error — the exit-1
// class.
func replayOne(path, hash string, store *campaignd.Store, showTrace, bisect bool, every sim.Tick, quiet bool) (*result, error) {
	art, err := harness.LoadArtifact(path)
	if err != nil {
		return nil, err
	}
	f := art.FirstFailure()
	res := &result{Path: path, Hash: hash, Kind: art.Kind, Seed: art.Seed, Failure: f, ScheduleLen: len(art.Schedule)}
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Printf(format, args...)
		}
	}
	logf("%s: %s artifact, seed %d, %s at tick %d (addr %#x)\n",
		path, art.Kind, art.Seed, f.Kind, f.Tick, f.Addr)
	if len(art.Schedule) > 0 {
		logf("  pinned schedule: %d recorded choice(s) (explored interleaving, replayed via script chooser)\n",
			len(art.Schedule))
	}
	if showTrace {
		logf("  trace tail (%d entries, ring capacity %d):\n", len(art.Trace), art.TraceCapacity)
		for _, e := range art.Trace {
			logf("    t=%-10d #%-8d %-12s %-24s %#x\n", e.Tick, e.Seq, e.Component, e.Label, e.Addr)
		}
	}

	var bi *harness.BisectResult
	if bisect {
		if bi, err = harness.BisectArtifact(art, every); errors.Is(err, harness.ErrBisectUnsupported) {
			// Nothing was replayed, so this is no verdict on the artifact:
			// it gets the plain reproduction check below.
			res.BisectSkipped = err.Error()
			logf("  bisection skipped: %s\n", err)
		} else if err != nil {
			res.Error = err.Error()
			return res, nil
		}
	}
	if bi == nil {
		if _, err := harness.Replay(art); err != nil {
			res.Error = err.Error()
			return res, nil
		}
	}
	// A reproduced run matched the artifact's op counts.
	res.Reproduced = true
	logf("  REPRODUCED: %s at tick %d, %d ops, %d kernel events — bit-identical\n",
		f.Kind, f.Tick, art.Ops.Completed, art.Ops.KernelEvents)
	if bi != nil {
		res.Bisect = bi
		logf("  BISECTED: first failing tick %d (reported at %d; %d checkpoints every %d ticks, %d fine steps from tick %d)\n",
			bi.FirstFailingTick, bi.ReportedTick, bi.Checkpoints, bi.CheckpointEvery, bi.FineSteps, bi.CoarseTick)

		min := harness.Minimize(art, filepath.Base(path), bi.FirstFailingTick)
		var minPath string
		if store != nil {
			// Store mode: the minimized artifact becomes a new
			// content-addressed object whose index entry records the
			// source object as provenance.
			data, err := min.Encode()
			if err != nil {
				res.Error = fmt.Sprintf("encoding minimized artifact: %v", err)
				return res, nil
			}
			minHash, p, _, err := store.Put(data, campaignd.ObjectMeta{
				Kind:          min.Kind,
				Seed:          min.Seed,
				Tick:          uint64(bi.FirstFailingTick),
				MinimizedFrom: hash,
			})
			if err != nil {
				res.Error = fmt.Sprintf("storing minimized artifact: %v", err)
				return res, nil
			}
			minPath = p
			res.MinimizedHash = minHash
		} else {
			var err error
			if minPath, err = harness.WriteMinimized(path, min); err != nil {
				res.Error = fmt.Sprintf("writing minimized artifact: %v", err)
				return res, nil
			}
		}
		res.MinimizedPath = minPath
		if _, err := harness.Replay(min); err != nil {
			res.Error = fmt.Sprintf("minimized artifact did not reproduce: %v", err)
			return res, nil
		}
		res.MinimizedReproduced = true
		logf("  MINIMIZED: %s (%d of %d trace entries, from tick %d) — verified reproducing\n",
			minPath, len(min.Trace), len(art.Trace), bi.FirstFailingTick)
	}
	return res, nil
}
