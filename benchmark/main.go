// Command benchmark is the repository's reference benchmark: seven
// fixed-work workloads, nine end-to-end metrics and, with -trace 1, a
// per-layer budget taken from outside the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// childEnv marks a re-exec'd child process.
const childEnv = "DRFBENCH_CHILD"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "run one workload and print the one-line driver result (default: all, as one document)")
		seed     = flag.Uint64("seed", 1, "derives every tester seed and campaign base seed")
		seconds  = flag.Float64("seconds", 16, "how long each timed run keeps making rounds of its fixed work")
		factor   = flag.Float64("factor", 1, "scales every round's op counts; expected.json pins factor 1")
		trace    = flag.Int("trace", 0, "1 re-runs each workload with outside-in instrumentation and prints the per-layer metrics")
		repeats  = flag.Int("repeats", 0, "repeats per workload (default 3, or 1 with -workload)")
		spans    = flag.String("spans", "", "with -trace 1, write the spans to this file as JSON lines")
		out      = flag.String("out", "", "also write the result document to this file")
		agree    = flag.Bool("agree", false, "compare two result documents of one commit: -agree A.json B.json")
		expected = flag.String("write-expected", "", "regenerate the seed-1 digests into this file (benchmark/expected.json)")
		child    = flag.String("child", "", "internal: run as a measurement child")
	)
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -agree A.json B.json")
			return 2
		}
		return agreeMain(flag.Arg(0), flag.Arg(1))
	}
	if *expected != "" {
		if err := writeExpected(*expected); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || *factor <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "-seconds and -factor must be positive and -trace 0 or 1")
		return 2
	}
	p := params{Seed: *seed, Seconds: *seconds, Factor: *factor}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}

	if *child != "" {
		if len(selected) != 1 || os.Getenv(childEnv) == "" {
			fmt.Fprintln(os.Stderr, "-child is internal")
			return 2
		}
		if err := childMain(*child, selected[0], p, *spans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	if *repeats <= 0 {
		*repeats = 3
		if *name != "" {
			*repeats = 1
		}
	}
	traced := *trace == 1
	if *spans != "" {
		// Children append; start from an empty file.
		if err := os.WriteFile(*spans, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	start := time.Now()
	doc := document{Schema: 1, Env: readEnvironment(p, traced)}
	failed := 0
	for _, w := range selected {
		d := runWorkload(w, p, *repeats, traced, *spans)
		for _, f := range d.Failures {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", w.Name, f)
		}
		failed += d.Failed
		doc.Workloads = append(doc.Workloads, d)
	}
	doc.Env.WallS = time.Since(start).Seconds()

	pretty, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(pretty, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *name == "" {
		fmt.Println(string(pretty))
	} else {
		line, err := json.Marshal(driverResult(doc.Workloads[0], traced))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(line))
	}
	if failed > 0 {
		return 1
	}
	return 0
}
