package golden

import "testing"

// TestMask: only the Fig. 9 wall fields are blanked; Fig. 6 rows,
// which also end in a percentage column, are left alone.
func TestMask(t *testing.T) {
	in := "Fig. 9: application transition coverage and testing time\n" +
		"  app                L1 cov   L2 cov   sim events         wall\n" +
		"  Square              33.3%    37.5%        12768       3.44ms\n" +
		"  (UNION)             72.2%    66.7%       659605      63.21ms\n" +
		"  HACC                  22.9%      61.9%       2.5%      12.8%\n"
	want := "Fig. 9: application transition coverage and testing time\n" +
		"  app                L1 cov   L2 cov   sim events         wall\n" +
		"  Square              33.3%    37.5%        12768 " + Masked + "\n" +
		"  (UNION)             72.2%    66.7%       659605 " + Masked + "\n" +
		"  HACC                  22.9%      61.9%       2.5%      12.8%\n"
	if got := string(Mask([]byte(in))); got != want {
		t.Fatalf("Mask:\n%s\nwant:\n%s", got, want)
	}
}

// TestMaskExplore: the explorer's mean cut and rewind times are blanked
// in the text report and under -json; the exact counts beside them are
// not.
func TestMaskExplore(t *testing.T) {
	in := "  cuts           9 at 15 choice points (mean 11.5 µs), 15 rewinds replaying 16 events (mean 4.6 µs)\n" +
		"    \"nsPerCut\": 34335.666666666664,\n" +
		"    \"nsPerRestore\": 0,\n" +
		"    \"frontierDepths\": [\n"
	want := "  cuts           9 at 15 choice points (mean " + Masked + " µs), 15 rewinds replaying 16 events (mean " + Masked + " µs)\n" +
		"    \"nsPerCut\": " + Masked + ",\n" +
		"    \"nsPerRestore\": " + Masked + ",\n" +
		"    \"frontierDepths\": [\n"
	if got := string(Mask([]byte(in))); got != want {
		t.Fatalf("Mask:\n%s\nwant:\n%s", got, want)
	}
}

// TestMaskCPUTester: cputester's wall time is blanked; the tick count
// beside it is not.
func TestMaskCPUTester(t *testing.T) {
	in := "  sim ticks      1142595, wall 100.289127ms\n  ops completed  40000 / 40000\n"
	want := "  sim ticks      1142595, wall " + Masked + "\n  ops completed  40000 / 40000\n"
	if got := string(Mask([]byte(in))); got != want {
		t.Fatalf("Mask:\n%s\nwant:\n%s", got, want)
	}
}

// TestMaskGPUTester: a single run's wall time and a campaign's rate and
// wall are blanked, in the text report and under -json; the counts
// beside them are not.
func TestMaskGPUTester(t *testing.T) {
	in := "  sim ticks      366841 (kernel events 391128)\n" +
		"  wall time      144.529985ms\n" +
		"  seeds run      32 in 4 batches (237.8 seeds/sec, wall 135ms)\n" +
		"  \"seedsPerSec\": 246.18181808949998,\n" +
		"  \"wallSeconds\": 0.129985229\n"
	want := "  sim ticks      366841 (kernel events 391128)\n" +
		"  wall time      " + Masked + "\n" +
		"  seeds run      32 in 4 batches (" + Masked + ")\n" +
		"  \"seedsPerSec\": " + Masked + ",\n" +
		"  \"wallSeconds\": " + Masked + "\n"
	if got := string(Mask([]byte(in))); got != want {
		t.Fatalf("Mask:\n%s\nwant:\n%s", got, want)
	}
}

// TestMaskFig8Speed: Fig. 8's wall column and the speed summary's host
// times (both sides' walls, the wall-clock speedup, the full sweep's
// total) are blanked; the coverage, event counts and the event-count
// speedup beside them are not.
func TestMaskFig8Speed(t *testing.T) {
	in := "  run       caches    L1 cov   L2 cov   sim events         wall\n" +
		"  Test 11   large      72.2%    89.5%         2024       2.18ms\n" +
		"  Test 3    small      77.8%   100.0%         2039        790µs\n" +
		"  (UNION)             100.0%   100.0%        57796       29.6ms\n" +
		"  apps (all 26)     :       659605 sim events       68.33ms wall  L1 72.2%  L2 73.7%\n" +
		"  tester (1 runs)  :         2024 sim events         920µs wall  L1 72.2%  L2 89.5%\n" +
		"  speedup to similar coverage (sim events): 325.9x\n" +
		"  speedup to similar coverage (wall clock): 74.2x\n" +
		"  full-sweep tester cost (all 24 runs, union L1 100.0% / L2 100.0%): 57796 events, 34.57ms\n"
	want := "  run       caches    L1 cov   L2 cov   sim events         wall\n" +
		"  Test 11   large      72.2%    89.5%         2024 " + Masked + "\n" +
		"  Test 3    small      77.8%   100.0%         2039 " + Masked + "\n" +
		"  (UNION)             100.0%   100.0%        57796 " + Masked + "\n" +
		"  apps (all 26)     :       659605 sim events " + Masked + " wall  L1 72.2%  L2 73.7%\n" +
		"  tester (1 runs)  :         2024 sim events " + Masked + " wall  L1 72.2%  L2 89.5%\n" +
		"  speedup to similar coverage (sim events): 325.9x\n" +
		"  speedup to similar coverage (wall clock): " + Masked + "\n" +
		"  full-sweep tester cost (all 24 runs, union L1 100.0% / L2 100.0%): 57796 events, " + Masked + "\n"
	if got := string(Mask([]byte(in))); got != want {
		t.Fatalf("Mask:\n%s\nwant:\n%s", got, want)
	}
}
