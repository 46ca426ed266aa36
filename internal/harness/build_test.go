package harness

import (
	"testing"

	"drftest/internal/cache"
	"drftest/internal/viper"
)

// TestBuildGPUAllocs pins what building a GPU system costs the
// allocator once the process holds its protocol tables: every build
// shares one immutable spec per controller, and the trace recorder
// takes each spec's label table instead of joining a State×Event
// string per cell. The build of the explorer's reference system (2 CUs,
// 4 KB/16 KB caches) took 297 objects when each build made its own
// specs and labels; it takes 126 now (a few more under the race
// detector).
func TestBuildGPUAllocs(t *testing.T) {
	if viper.NewTCPSpec() != viper.NewTCPSpec() || viper.NewTCCSpec() != viper.NewTCCSpec() || viper.NewTCCWBSpec() != viper.NewTCCWBSpec() {
		t.Fatal("a spec constructor built a second table")
	}
	sys := viper.SmallCacheConfig()
	sys.NumCUs, sys.NumL2Slices = 2, 1
	sys.L1 = cache.Config{SizeBytes: 4096, LineSize: 64, Assoc: 2}
	sys.L2 = cache.Config{SizeBytes: 16384, LineSize: 64, Assoc: 2}
	allocs := testing.AllocsPerRun(5, func() { BuildGPU(sys) })
	t.Logf("BuildGPU: %.0f objects", allocs)
	if allocs > 140 {
		t.Fatalf("BuildGPU allocated %.0f objects, want at most 140", allocs)
	}
}
