package harness

import (
	"testing"

	"drftest/internal/core"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// overtakeShape is the test config FuzzTesterNoFalseAlarms first
// caught a thread reading older data than its own store with: one
// wavefront sends a RdBlk and a WrVicBlk to one line, the L2 answers
// the fill before it applies the store, and the jittered response link
// delivers the store's ack first. The L1 must keep the store's bytes
// over the late fill (DESIGN §15.1).
func overtakeShape(seed uint64, jitter uint64, writeBack bool) (viper.Config, core.Config) {
	sys := viper.SmallCacheConfig()
	sys.NumL2Slices = 1
	sys.WriteBackL2 = writeBack
	sys.RespJitter, sys.JitterSeed = sim.Tick(jitter), seed
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.NumWavefronts, cfg.EpisodesPerThread, cfg.ActionsPerEpisode = 6, 4, 22
	cfg.NumSyncVars, cfg.NumDataVars = 3, 274
	return sys, cfg
}

// TestAckOvertakesFillWriteBack is the fuzzer's instance: write-back
// L2 (acks on acceptance), jitter 12, seed 118. Before the fix its
// load of 0x4ac returned 420 after the thread stored 689.
func TestAckOvertakesFillWriteBack(t *testing.T) {
	runOvertake(t, 118, 12, true)
}

// TestAckOvertakesFillWriteThrough is the write-through instance: the
// ack waits for the memory write there, so only a wide window (jitter
// 200) lets it overtake the fill.
func TestAckOvertakesFillWriteThrough(t *testing.T) {
	runOvertake(t, 3, 200, false)
}

func runOvertake(t *testing.T, seed, jitter uint64, writeBack bool) {
	sys, cfg := overtakeShape(seed, jitter, writeBack)
	if err := ValidateRun(sys, cfg, 0); err != nil {
		t.Fatal(err)
	}
	rep := NewGPURun(sys, cfg, false, 0).Tester.Run()
	if !rep.Passed() {
		t.Fatalf("false alarm on a correct protocol: %s", rep.Failures[0].TableV())
	}
	if rep.OpsCompleted != cfg.TotalActions() {
		t.Fatalf("lost operations: %d of %d", rep.OpsCompleted, cfg.TotalActions())
	}
}
