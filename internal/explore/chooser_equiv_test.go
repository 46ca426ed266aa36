package explore

import (
	"bytes"
	"testing"

	"drftest/internal/core"
	"drftest/internal/harness"
	"drftest/internal/sim"
	"drftest/internal/trace"
	"drftest/internal/viper"
)

// runArtifact runs one full tester pass (optionally under a chooser)
// and returns the serialized replay artifact — the bit-identity
// witness covering ops, final RNG state, failures and the trace tail.
func runArtifact(t *testing.T, sys viper.Config, tc core.Config, ch sim.Chooser) []byte {
	t.Helper()
	b := harness.BuildGPU(sys)
	ring := trace.NewRing(harness.DefaultTraceCapacity)
	b.K.SetTracer(ring)
	tester := core.New(b.K, b.Sys, tc)
	if ch != nil {
		b.K.SetChooser(ch)
	}
	rep := tester.Run()
	data, err := harness.NewGPUArtifact(sys, tc, tester, rep, ring).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFIFOChooserFullSystemBitIdentical pins the acceptance criterion
// that the chooser seam is invisible by default: a complete GPU tester
// run under FIFOChooser is bit-identical — same artifact bytes, trace
// included — to the same run with no chooser attached.
func TestFIFOChooserFullSystemBitIdentical(t *testing.T) {
	for _, cfg := range []struct {
		name string
		sys  viper.Config
		tc   core.Config
	}{
		{"tiny", exploreSysCfg(), exploreTestCfg(1)},
		{"wide", exploreBigSetsSys(), exploreWideCfg(2)},
		{"rich", exploreBigSetsSys(), exploreRichCfg(3)},
	} {
		plain := runArtifact(t, cfg.sys, cfg.tc, nil)
		fifo := runArtifact(t, cfg.sys, cfg.tc, sim.FIFOChooser{})
		if !bytes.Equal(plain, fifo) {
			t.Fatalf("%s: FIFO-chooser run diverged from default run", cfg.name)
		}
	}
}
