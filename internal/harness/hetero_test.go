package harness

import (
	"testing"

	"drftest/internal/audit"
	"drftest/internal/mem"
	"drftest/internal/viper"
)

// hclient collects responses for hand-scripted heterogeneous tests.
type hclient struct {
	responses map[uint64]*mem.Response
}

func (c *hclient) HandleResponse(r *mem.Response) {
	cp := *r // the Response is only valid during the call (mem.Requestor)
	c.responses[r.Req.ID] = &cp
}

// TestGPUWriteVisibleToCPU: a drained GPU store must be observed by a
// subsequent CPU load — the write-through went through the directory
// into memory.
func TestGPUWriteVisibleToCPU(t *testing.T) {
	b := BuildHetero(smallGPU(), 2, DefaultCPUCache)
	cl := &hclient{responses: map[uint64]*mem.Response{}}
	b.GPU.Seqs[0].SetClient(cl)
	b.Caches[0].SetClient(cl)
	b.Caches[1].SetClient(cl)

	b.GPU.Seqs[0].Issue(&mem.Request{ID: 1, Op: mem.OpStore, Addr: 0x100, Data: 42, ThreadID: 0})
	b.K.RunUntilIdle()
	b.Caches[0].Issue(&mem.Request{ID: 2, Op: mem.OpLoad, Addr: 0x100, ThreadID: 100})
	b.K.RunUntilIdle()
	if got := cl.responses[2].Data; got != 42 {
		t.Fatalf("CPU load saw %d, want 42", got)
	}
}

// TestCPUDirtyWriteVisibleToGPU: a CPU store leaves the line dirty in
// the CPU cache; a GPU load must trigger a directory probe that
// extracts the dirty data before the GPU fill.
func TestCPUDirtyWriteVisibleToGPU(t *testing.T) {
	b := BuildHetero(smallGPU(), 2, DefaultCPUCache)
	cl := &hclient{responses: map[uint64]*mem.Response{}}
	b.GPU.Seqs[0].SetClient(cl)
	b.Caches[0].SetClient(cl)
	b.Caches[1].SetClient(cl)

	b.Caches[0].Issue(&mem.Request{ID: 1, Op: mem.OpStore, Addr: 0x200, Data: 77, ThreadID: 100})
	b.K.RunUntilIdle()
	b.GPU.Seqs[0].Issue(&mem.Request{ID: 2, Op: mem.OpLoad, Addr: 0x200, ThreadID: 0})
	b.K.RunUntilIdle()
	if got := cl.responses[2].Data; got != 77 {
		t.Fatalf("GPU load saw %d, want 77 (dirty CPU owner not probed)", got)
	}
}

// TestCPUStoreInvalidatesGPUL2: the GPU caches a line in its L2; a CPU
// store must probe-invalidate it, so a post-acquire GPU load sees the
// new value — the "CPU L2 may want to own a cache line in GPU L2"
// scenario that makes PrbInv reachable for applications.
func TestCPUStoreInvalidatesGPUL2(t *testing.T) {
	b := BuildHetero(smallGPU(), 2, DefaultCPUCache)
	cl := &hclient{responses: map[uint64]*mem.Response{}}
	b.GPU.Seqs[0].SetClient(cl)
	b.Caches[0].SetClient(cl)
	b.Caches[1].SetClient(cl)

	// GPU warms the line into TCP+TCC.
	b.GPU.Seqs[0].Issue(&mem.Request{ID: 1, Op: mem.OpLoad, Addr: 0x300, ThreadID: 0})
	b.K.RunUntilIdle()
	// CPU takes the line exclusively and writes it.
	b.Caches[0].Issue(&mem.Request{ID: 2, Op: mem.OpStore, Addr: 0x300, Data: 5, ThreadID: 100})
	b.K.RunUntilIdle()
	// GPU acquire (flash-invalidates its L1), then load: must miss all
	// the way to the directory and observe the CPU's value.
	b.GPU.Seqs[0].Issue(&mem.Request{ID: 3, Op: mem.OpAtomic, Addr: 0x4000, Operand: 1, Acquire: true, ThreadID: 0})
	b.K.RunUntilIdle()
	b.GPU.Seqs[0].Issue(&mem.Request{ID: 4, Op: mem.OpLoad, Addr: 0x300, ThreadID: 0})
	b.K.RunUntilIdle()
	if got := cl.responses[4].Data; got != 5 {
		t.Fatalf("GPU post-acquire load saw %d, want 5", got)
	}
	// The TCC must have seen the probe.
	l2 := b.Col.Matrix("GPU-L2")
	probeHits := uint64(0)
	for st := range l2.Hits {
		probeHits += l2.Hits[st][7] // TCCPrbInv
	}
	if probeHits == 0 {
		t.Fatal("GPU L2 never saw a probe-invalidate")
	}
}

// TestGPUAtomicNackedWhileCPUHolds: an atomic to a CPU-held line is
// NACKed and retried until the directory cleans the CPU copies — the
// AtomicND path.
func TestGPUAtomicNackedWhileCPUHolds(t *testing.T) {
	b := BuildHetero(smallGPU(), 2, DefaultCPUCache)
	cl := &hclient{responses: map[uint64]*mem.Response{}}
	b.GPU.Seqs[0].SetClient(cl)
	b.Caches[0].SetClient(cl)
	b.Caches[1].SetClient(cl)

	b.Caches[0].Issue(&mem.Request{ID: 1, Op: mem.OpStore, Addr: 0x500, Data: 10, ThreadID: 100})
	b.K.RunUntilIdle()
	b.GPU.Seqs[0].Issue(&mem.Request{ID: 2, Op: mem.OpAtomic, Addr: 0x500, Operand: 1, ThreadID: 0})
	b.K.RunUntilIdle()
	if got := cl.responses[2].Data; got != 10 {
		t.Fatalf("atomic old value %d, want 10 (dirty data must reach memory first)", got)
	}
	nacks, _, _ := b.Dir.Stats()
	if nacks == 0 {
		t.Fatal("directory never NACKed the atomic")
	}
	l2 := b.Col.Matrix("GPU-L2")
	if l2.Hits[3][4] == 0 { // [A, AtomicND]
		t.Fatal("[A,AtomicND] retry not recorded at the TCC")
	}
	if got := b.Store.ReadWord(0x500); got != 11 {
		t.Fatalf("memory holds %d after atomic, want 11", got)
	}
}

func smallGPU() viper.Config {
	cfg := viper.SmallCacheConfig()
	cfg.NumCUs = 2
	return cfg
}

// TestHeteroBuildFieldAudit pins the heterogeneous system's layers: a
// layer added to HeteroBuild must be classified here and, if it
// carries run state, join HeteroBuild.Reset (TestAppSuiteReuseMatchesFresh
// then checks the reset against a fresh build).
func TestHeteroBuildFieldAudit(t *testing.T) {
	audit.Fields(t, HeteroBuild{}, map[string]string{
		"K":      "reset: Kernel.Reset, first",
		"GPU":    "reset: viper.System.Reset",
		"Caches": "reset: moesi.Cache.Reset, each",
		"Dir":    "reset: directory.Directory.Reset; its memory controller and that controller's line pool after the DMA engine",
		"DMA":    "reset: dma.Engine.Reset",
		"Store":  "reset: by memctrl.Controller.Reset (the directory's controller owns it)",
		"Col":    "reset: coverage.Collector.Reset, last",
		"runner": "recycled: apps.Runner.Run resets cores, programs and tracker at the next application's start; Reset leaves it",
		"host":   "recycled: HeteroBuild.resetHost resets threads and RNG at the next application's start; Reset leaves it",
	})
}

// TestHostDriverNoMaps pins that the host driver, recycled across a
// worker's applications, holds no Go map (see audit.NoMaps): its
// threads' pending flags and op budgets are a slice, bar the backing
// store's far-page map behind the caches.
func TestHostDriverNoMaps(t *testing.T) {
	audit.NoMaps(t, hostDriver{}, "Store.far")
}
