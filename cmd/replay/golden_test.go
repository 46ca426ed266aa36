package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"drftest/internal/golden"
	"drftest/internal/harness"
)

// TestGoldenReplay pins replay and replay -bisect, text and -json, on
// three committed gputester artifacts: a single run's write-back
// atomicity bug, a campaign seed's lost write, and an explored
// schedule, whose pinned schedule -bisect skips. Each run replays a
// copy in a temporary directory, spelled ARTIFACT_DIR in the output;
// the minimized artifact -bisect writes beside it is pinned byte for
// byte too.
func TestGoldenReplay(t *testing.T) {
	for _, name := range []string{"wb_nonatomic", "campaign_wt_lostwrite", "explore_nonatomic"} {
		data, err := os.ReadFile(filepath.Join("..", "gputester", "testdata", "golden", "gputester_"+name+"_artifact.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, bisect := range []bool{false, true} {
			for _, format := range []string{"txt", "json"} {
				var args []string
				label := "replay_" + name
				if bisect {
					args = append(args, "-bisect")
					label += "_bisect"
				}
				if format == "json" {
					args = append(args, "-json")
				}
				dir := t.TempDir()
				path := filepath.Join(dir, name+".json")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				out := golden.RunMain(t, append(args, path)...)
				out = bytes.ReplaceAll(out, []byte(dir), []byte("ARTIFACT_DIR"))
				golden.Check(t, label+"."+format, "replay "+label+" -"+format, out)
				min, err := os.ReadFile(harness.MinimizedPath(path))
				switch {
				case err == nil && bisect:
					golden.Check(t, label+".min.json", "replay "+label+" minimized artifact", min)
				case err == nil:
					t.Errorf("replay %s -%s wrote a minimized artifact without -bisect", name, format)
				case !os.IsNotExist(err):
					t.Fatal(err)
				}
			}
		}
	}
}
