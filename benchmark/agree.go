package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
)

// agreeMain compares two result documents of one commit. It exits
// non-zero, naming metric and workload, when an end-to-end median
// differs by more than the metric's bound or an exact count differs,
// and reports a metric whose own min-max spread exceeds its bound as
// unresolved rather than equal.
func agreeMain(pathA, pathB string) int {
	a, err := readDocument(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readDocument(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if a.Env.Commit != b.Env.Commit {
		fmt.Printf("note: the documents are of different commits (%s, %s); -agree is meant for two runs of one\n", a.Env.Commit, b.Env.Commit)
	}
	differ, unresolved := agree(a, b, os.Stdout)
	fmt.Printf("%d differ, %d unresolved\n", differ, unresolved)
	if differ > 0 {
		return 1
	}
	return 0
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// spread is a stat's min-max range as a share of its median.
func (s *stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Median
}

// agree writes one line per disagreement to out and returns how many
// pairings differ and how many are unresolved.
func agree(a, b *document, out io.Writer) (differ, unresolved int) {
	byName := map[string]*workloadDoc{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(out, "DIFFER %s: missing from the second document\n", wa.Name)
			differ++
			continue
		}
		if !reflect.DeepEqual(wa.Digest, wb.Digest) {
			fmt.Fprintf(out, "DIFFER %s digest: %v vs %v\n", wa.Name, wa.Digest, wb.Digest)
			differ++
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(out, "DIFFER %s: failed checks (%d and %d)\n", wa.Name, wa.Failed, wb.Failed)
			differ++
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				if sa != sb {
					fmt.Fprintf(out, "DIFFER %s %s: reported by one document only\n", wa.Name, m.Name)
					differ++
				}
				continue
			}
			gap := 0.0
			if sa.Median != 0 {
				gap = (sb.Median - sa.Median) / sa.Median
			}
			switch {
			case sa.spread() > m.Bound || sb.spread() > m.Bound:
				fmt.Fprintf(out, "UNRESOLVED %s %s: own spread %.1f%% / %.1f%% exceeds the %.1f%% bound (medians %.6g vs %.6g)\n",
					wa.Name, m.Name, 100*sa.spread(), 100*sb.spread(), 100*m.Bound, sa.Median, sb.Median)
				unresolved++
			case gap > m.Bound || gap < -m.Bound:
				fmt.Fprintf(out, "DIFFER %s %s: medians %.6g vs %.6g (%+.1f%%, bound %.1f%%)\n",
					wa.Name, m.Name, sa.Median, sb.Median, 100*gap, 100*m.Bound)
				differ++
			}
		}
		// Exact per-layer counts (traced documents) must not move at all.
		for _, m := range perLayer {
			sa, sb := wa.PerLayer[m.Name], wb.PerLayer[m.Name]
			if sa == nil || sb == nil || !m.Exact {
				continue
			}
			if sa.Median != sb.Median {
				fmt.Fprintf(out, "DIFFER %s %s: exact count %.6g vs %.6g\n", wa.Name, m.Name, sa.Median, sb.Median)
				differ++
			}
		}
	}
	return differ, unresolved
}
