package explore

import (
	"testing"

	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/harness"
)

// FuzzExploreNoFalseAlarms explores fuzzer-chosen tiny configurations
// on the correct protocol: no schedule the explorer enumerates, nor the
// reduction it prunes by, may produce a violation. An input
// harness.ValidateRun refuses is skipped. Run with `go test -fuzz
// FuzzExploreNoFalseAlarms ./internal/explore` for open-ended
// exploration; the seed corpus (testdata/fuzz included) runs in normal
// test mode.
//
// Inputs: 2–3 wavefronts of 2 lanes, 1–2 episodes per thread, 2–8
// actions, 1–8 data variables over one sync variable, the address
// range in cache lines (1–32: how much the variables share lines), the
// store fraction in 256ths (0: the default), an L1 shape (0 keeps the
// small preset's 2-way 2-set L1; otherwise 1–4 ways × 1–8 sets of 64 B
// lines), the L2 protocol, and the exploration depth (1–8) and budget
// (1–2 000), pruned or naive.
func FuzzExploreNoFalseAlarms(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(4), uint8(4), uint8(8), uint8(0), uint8(0), false, uint8(7), uint16(500), true)
	f.Add(uint64(2), uint8(1), uint8(1), uint8(2), uint8(6), uint8(3), uint8(180), uint8(0x09), true, uint8(7), uint16(1999), true)
	f.Add(uint64(13), uint8(0), uint8(0), uint8(8), uint8(15), uint8(31), uint8(0), uint8(0x0f), false, uint8(7), uint16(1000), false)
	f.Add(uint64(7), uint8(1), uint8(1), uint8(6), uint8(1), uint8(0), uint8(60), uint8(0x04), true, uint8(4), uint16(300), false)

	f.Fuzz(func(t *testing.T, seed uint64, wfs, episodes, actions, dataVars, rangeLines, storeFrac, l1Shape uint8,
		writeBack bool, depth uint8, budget uint16, prune bool) {
		sys := exploreSysCfg()
		if l1Shape != 0 {
			assoc, sets := 1<<(l1Shape&3%3), 1<<(l1Shape>>2%4)
			sys.L1 = cache.Config{SizeBytes: sets * assoc * 64, LineSize: 64, Assoc: assoc}
		}
		sys.WriteBackL2 = writeBack

		tc := core.Config{
			Seed: seed, NumWavefronts: 2 + int(wfs%2), ThreadsPerWF: 2,
			EpisodesPerThread: 1 + int(episodes%2), ActionsPerEpisode: 2 + int(actions%7),
			NumSyncVars: 1, NumDataVars: 1 + int(dataVars%8),
			AddressRangeBytes: 64 * (1 + uint64(rangeLines%32)),
			StoreFraction:     float64(storeFrac) / 256,
			AtomicDelta:       1, DeadlockThreshold: 20_000, CheckPeriod: 5_000, LogCapacity: 256,
		}
		if err := harness.ValidateRun(sys, tc, 0); err != nil {
			t.Skip(err)
		}
		res, err := Run(Config{SysCfg: sys, TestCfg: tc, Depth: 1 + int(depth%8), Budget: 1 + uint64(budget%2000), Prune: prune})
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Violation; v != nil {
			t.Fatalf("false alarm on the correct protocol after %d schedules (sys %+v, cfg %+v): %+v",
				res.Schedules, sys, tc, *v)
		}
	})
}
