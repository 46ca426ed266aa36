package dma

import (
	"testing"

	"drftest/internal/audit"
	"drftest/internal/coverage"
	"drftest/internal/directory"
	"drftest/internal/mem"
	"drftest/internal/memctrl"
	"drftest/internal/sim"
)

func newRig() (*sim.Kernel, *Engine, *mem.Store, *coverage.Collector) {
	k := sim.NewKernel()
	col := coverage.NewCollector(directory.NewSpec())
	store := mem.NewStore()
	ctrl := memctrl.New(k, memctrl.DefaultConfig(), store, nil)
	dir := directory.New(k, col, nil, ctrl, 64)
	return k, New(k, dir, 64), store, col
}

func TestCopyInWritesPattern(t *testing.T) {
	k, e, store, col := newRig()
	doneAt := sim.Tick(0)
	e.CopyIn(0x1000, 8, 10, func() { doneAt = k.Now() })
	k.RunUntilIdle()
	if doneAt == 0 {
		t.Fatal("done callback never ran")
	}
	reads, writes := e.Stats()
	if reads != 0 || writes != 8 {
		t.Fatalf("stats r=%d w=%d", reads, writes)
	}
	// Every written line is non-zero and distinct per line.
	a := store.ByteAt(0x1000)
	b := store.ByteAt(0x1040)
	if a == b {
		t.Fatal("DMA pattern not line-dependent")
	}
	if col.Matrix("Directory").Hits[directory.StateU][directory.EvDMAWr] == 0 {
		t.Fatal("[U,DMA_Wr] not recorded")
	}
}

func TestCopyOutReads(t *testing.T) {
	k, e, _, col := newRig()
	done := false
	e.CopyOut(0x2000, 4, 5, func() { done = true })
	k.RunUntilIdle()
	if !done {
		t.Fatal("CopyOut never finished")
	}
	if r, _ := e.Stats(); r != 4 {
		t.Fatalf("reads=%d", r)
	}
	if col.Matrix("Directory").Hits[directory.StateU][directory.EvDMARd] == 0 {
		t.Fatal("[U,DMA_Rd] not recorded")
	}
}

func TestZeroLinesCompletesImmediately(t *testing.T) {
	k, e, _, _ := newRig()
	done := false
	e.CopyIn(0, 0, 1, func() { done = true })
	k.RunUntilIdle()
	if !done {
		t.Fatal("zero-length transfer never completed")
	}
	if e.Inflight() != 0 {
		t.Fatal("inflight count leaked")
	}
}

// TestCopyInSteadyStateAllocs pins the pooled-transfer engine: once a
// transfer object and its pattern buffer exist, repeated CopyIns over
// the same buffer allocate nothing — the per-line closures and pattern
// buffers the old engine built are gone — and neither do the CopyOuts
// that read the buffer back, whose data the engine borrows from the
// directory's response.
func TestCopyInSteadyStateAllocs(t *testing.T) {
	k, e, _, _ := newRig()
	round := func() {
		e.CopyIn(0x1000, 8, 10, nil)
		k.RunUntilIdle()
		e.CopyOut(0x1000, 8, 10, nil)
		k.RunUntilIdle()
	}
	for i := 0; i < 3; i++ {
		round()
	}
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("steady-state CopyIn allocates %.1f objects, want 0", n)
	}
}

// TestResetFieldAudit pins the Engine's field set: a field added later
// must be classified here, and so cannot escape Reset (see package
// audit).
func TestResetFieldAudit(t *testing.T) {
	audit.Fields(t, Engine{}, map[string]string{
		"k":        "wiring: fixed at construction, survives Reset",
		"dir":      "wiring: fixed at construction (its owner resets the directory)",
		"port":     "wiring: the engine's directory port, attached at construction",
		"lineSize": "wiring: fixed at construction, survives Reset",
		"reads":    "stats: Reset zeroes",
		"writes":   "stats: Reset zeroes",
		"inflight": "state: Reset zeroes it, dropping transfers still in flight",
		"free":     "pool: idle transfers, kept across Reset (every field a transfer reads is set before use)",
	})
}

// TestNoMaps pins that the engine's state holds no Go map (see
// audit.NoMaps), bar the backing store's far-page map.
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, Engine{}, "Store.far")
}
