package harness

import (
	"runtime"
	"testing"

	"drftest/internal/cache"
	"drftest/internal/viper"
)

// TestBuildGPUAllocs pins what building a GPU system costs the
// allocator once the process holds its protocol tables: every build
// shares one immutable spec per controller, with its label table, and
// each protocol machine is bound straight to its collector matrix and
// kernel. The build of the explorer's reference system (2 CUs,
// 4 KB/16 KB caches) took 297 objects when each build made its own
// specs and labels, 117 while each machine also took a trace tee and
// each build a label map, and takes 109 now.
//
// The large row prices the paper's large configuration (eight 256 KB
// 16-way L1s, a 1 MB 16-way L2) in bytes too: a cache array builds its
// way planes on first use, so a build holds the arrays' probe rows and
// index, not their 7 MB of lines. It allocated 6 957 KB in 293 objects
// while NewArray laid out every line up front, and allocates 817 KB in
// 283 now; the bound is a quarter of the former. Under the race
// detector the counts include the detector's own, which put the large
// row at 294–304 objects, so the test skips there.
func TestBuildGPUAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts include the race detector's")
	}
	if viper.NewTCPSpec() != viper.NewTCPSpec() || viper.NewTCCSpec() != viper.NewTCCSpec() || viper.NewTCCWBSpec() != viper.NewTCCWBSpec() {
		t.Fatal("a spec constructor built a second table")
	}
	ref := viper.SmallCacheConfig()
	ref.NumCUs, ref.NumL2Slices = 2, 1
	ref.L1 = cache.Config{SizeBytes: 4096, LineSize: 64, Assoc: 2}
	ref.L2 = cache.Config{SizeBytes: 16384, LineSize: 64, Assoc: 2}
	for _, tc := range []struct {
		name     string
		sys      viper.Config
		maxAlloc float64 // objects per build
		maxBytes uint64  // bytes per build; 0 leaves them unpinned
	}{
		{"reference", ref, 114, 0},
		{"large", viper.LargeCacheConfig(), 300, 6957 << 10 / 4},
	} {
		allocs := testing.AllocsPerRun(5, func() { BuildGPU(tc.sys) })
		bytes := bytesPerRun(5, func() { BuildGPU(tc.sys) })
		t.Logf("BuildGPU %s: %.0f objects, %d KB", tc.name, allocs, bytes>>10)
		if allocs > tc.maxAlloc {
			t.Errorf("BuildGPU %s allocated %.0f objects, want at most %.0f", tc.name, allocs, tc.maxAlloc)
		}
		if tc.maxBytes != 0 && bytes > tc.maxBytes {
			t.Errorf("BuildGPU %s allocated %d KB, want at most %d KB", tc.name, bytes>>10, tc.maxBytes>>10)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes: the mean growth of
// runtime.MemStats.TotalAlloc over runs calls of f, after one warm-up
// call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
