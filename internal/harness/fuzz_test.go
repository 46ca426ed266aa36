package harness

import (
	"testing"

	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// FuzzTesterNoFalseAlarms drives the whole stack with fuzzer-chosen
// configurations: on a correct protocol the tester must never report a
// failure, never lose an operation, and keep the L2 byte-identical to
// memory. An input ValidateRun refuses is skipped, so the fuzzer
// explores exactly what the daemon and gputester admit. Run with `go
// test -fuzz FuzzTesterNoFalseAlarms ./internal/harness` for open-ended
// exploration; the seed corpus (testdata/fuzz included) runs in normal
// test mode.
//
// Inputs: the cache preset and L2 slice count (cacheSel), an L1 shape
// (l1Shape: 0 keeps the preset's; otherwise 1–8 ways × 1–128 sets of
// the preset's line), the tester's counts, the store fraction in 256ths
// (0: the default), the request/response link and memory latencies, a
// response jitter window of 0–64 ticks and the L2 protocol.
func FuzzTesterNoFalseAlarms(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(8), uint8(3), uint8(10), uint8(20), uint8(4), uint16(64), uint8(0), uint8(8), uint8(8), uint16(100), uint8(0), false)
	f.Add(uint64(7), uint8(1), uint8(0), uint8(4), uint8(3), uint8(4), uint8(60), uint8(1), uint16(512), uint8(0), uint8(8), uint8(8), uint16(100), uint8(12), false)
	f.Add(uint64(42), uint8(2), uint8(0), uint8(16), uint8(3), uint8(2), uint8(9), uint8(16), uint16(300), uint8(0), uint8(8), uint8(8), uint16(100), uint8(0), true)
	f.Add(uint64(99), uint8(0), uint8(0), uint8(3), uint8(3), uint8(7), uint8(33), uint8(2), uint16(48), uint8(0), uint8(8), uint8(8), uint16(100), uint8(12), true)
	f.Add(uint64(5), uint8(3), uint8(0x1d), uint8(5), uint8(0), uint8(3), uint8(40), uint8(2), uint16(90), uint8(230), uint8(1), uint8(30), uint16(7), uint8(64), true)

	f.Fuzz(func(t *testing.T, seed uint64, cacheSel, l1Shape, wfs, lanes, episodes, actions, syncVars uint8, dataVars uint16,
		storeFrac, reqLat, respLat uint8, memLat uint16, jitter uint8, writeBack bool) {
		var sysCfg viper.Config
		switch cacheSel % 3 {
		case 0:
			sysCfg = viper.SmallCacheConfig()
		case 1:
			sysCfg = viper.LargeCacheConfig()
		default:
			sysCfg = viper.MixedCacheConfig()
		}
		sysCfg.NumL2Slices = 1 + int(cacheSel%4)
		if l1Shape != 0 {
			assoc, sets := 1<<(l1Shape&3), 1<<(l1Shape>>2%8)
			sysCfg.L1 = cache.Config{SizeBytes: sets * assoc * sysCfg.L1.LineSize, LineSize: sysCfg.L1.LineSize, Assoc: assoc}
		}
		sysCfg.WriteBackL2 = writeBack
		sysCfg.ReqLatency, sysCfg.RespLatency = sim.Tick(reqLat), sim.Tick(respLat)
		sysCfg.Mem.AccessLatency = sim.Tick(memLat)
		sysCfg.RespJitter, sysCfg.JitterSeed = sim.Tick(jitter%65), seed

		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.NumWavefronts = 1 + int(wfs%24)
		cfg.ThreadsPerWF = 1 + int(lanes%8)
		cfg.EpisodesPerThread = 1 + int(episodes%12)
		cfg.ActionsPerEpisode = 2 + int(actions%80)
		cfg.NumSyncVars = 1 + int(syncVars%20)
		cfg.NumDataVars = 16 + int(dataVars%2048)
		cfg.StoreFraction = float64(storeFrac) / 256

		if err := ValidateRun(sysCfg, cfg, 0); err != nil {
			t.Skip(err)
		}
		b := BuildGPU(sysCfg)
		rep := core.New(b.K, b.Sys, cfg).Run()
		if !rep.Passed() {
			t.Fatalf("false alarm on correct protocol (cfg %+v): %s", cfg, rep.Failures[0].TableV())
		}
		if rep.OpsCompleted != cfg.TotalActions() {
			t.Fatalf("lost operations: %d of %d", rep.OpsCompleted, cfg.TotalActions())
		}
	})
}
