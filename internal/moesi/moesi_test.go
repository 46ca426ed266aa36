package moesi

import (
	"testing"

	"drftest/internal/audit"
	"drftest/internal/cache"
	"drftest/internal/coverage"
	"drftest/internal/directory"
	"drftest/internal/mem"
	"drftest/internal/memctrl"
	"drftest/internal/sim"
)

type client struct {
	responses map[uint64]*mem.Response
}

func (c *client) HandleResponse(r *mem.Response) {
	cp := *r // the Response is only valid during the call (mem.Requestor)
	c.responses[r.Req.ID] = &cp
}

type rig struct {
	k      *sim.Kernel
	caches []*Cache
	dir    *directory.Directory
	store  *mem.Store
	col    *coverage.Collector
	cl     *client
	id     uint64
}

func newRig(t *testing.T, numCPUs int) *rig {
	t.Helper()
	k := sim.NewKernel()
	col := coverage.NewCollector(NewCPUSpec(), directory.NewSpec())
	store := mem.NewStore()
	ctrl := memctrl.New(k, memctrl.DefaultConfig(), store, nil)
	dir := directory.New(k, col, nil, ctrl, 64)
	cl := &client{responses: make(map[uint64]*mem.Response)}
	r := &rig{k: k, dir: dir, store: store, col: col, cl: cl}
	spec := NewCPUSpec()
	for i := 0; i < numCPUs; i++ {
		c := NewCache(k, spec, col, nil, cache.Config{SizeBytes: 512, LineSize: 64, Assoc: 2}, dir)
		c.SetClient(cl)
		r.caches = append(r.caches, c)
	}
	return r
}

func (r *rig) issue(cpu int, op mem.Op, addr mem.Addr, val uint32) uint64 {
	r.id++
	req := &mem.Request{ID: r.id, Op: op, Addr: addr, ThreadID: cpu}
	if op == mem.OpStore {
		req.Data = val
	}
	r.caches[cpu].Issue(req)
	return r.id
}

func (r *rig) run() { r.k.RunUntilIdle() }

func (r *rig) data(t *testing.T, id uint64) uint32 {
	t.Helper()
	resp, ok := r.cl.responses[id]
	if !ok {
		t.Fatalf("no response for %d", id)
	}
	return resp.Data
}

func TestCPUSpecCounts(t *testing.T) {
	s := NewCPUSpec()
	if d := s.CountKind(2); d != 30 { // protocol.Defined
		t.Fatalf("CPU spec defines %d cells, want 30", d)
	}
}

func TestLoadMissGetsExclusive(t *testing.T) {
	r := newRig(t, 2)
	r.store.WriteWord(0x100, 42)
	id := r.issue(0, mem.OpLoad, 0x100, 0)
	r.run()
	if r.data(t, id) != 42 {
		t.Fatal("load wrong value")
	}
	if r.col.Matrix("CPU-L1").Hits[StateI][EvDataE] == 0 {
		t.Fatal("sole reader should fill exclusive (DataE)")
	}
}

func TestSecondReaderGetsShared(t *testing.T) {
	r := newRig(t, 2)
	r.issue(0, mem.OpLoad, 0x100, 0)
	r.run()
	id := r.issue(1, mem.OpLoad, 0x100, 0)
	r.run()
	_ = r.data(t, id)
	if r.col.Matrix("CPU-L1").Hits[StateI][EvDataS] == 0 {
		t.Fatal("second reader should fill shared (DataS)")
	}
}

func TestStoreThenRemoteLoadSeesValue(t *testing.T) {
	r := newRig(t, 2)
	st := r.issue(0, mem.OpStore, 0x200, 99)
	r.run()
	_ = r.data(t, st)
	ld := r.issue(1, mem.OpLoad, 0x200, 0)
	r.run()
	if got := r.data(t, ld); got != 99 {
		t.Fatalf("remote load saw %d, want 99 (dirty owner must be probed)", got)
	}
	m := r.col.Matrix("CPU-L1")
	if m.Hits[StateM][EvPrbShr] == 0 {
		t.Fatal("[M,PrbShr] downgrade not recorded")
	}
	if r.col.Matrix("Directory").Hits[directory.StateB][directory.EvPrbAckOwned] == 0 {
		t.Fatal("owner-serve probe ack not recorded at directory")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	r := newRig(t, 3)
	r.issue(0, mem.OpLoad, 0x300, 0)
	r.issue(1, mem.OpLoad, 0x300, 0)
	r.run()
	st := r.issue(2, mem.OpStore, 0x300, 7)
	r.run()
	_ = r.data(t, st)
	// Sharers were probed clean; a later read must see the new value
	// via the new owner.
	ld := r.issue(0, mem.OpLoad, 0x300, 0)
	r.run()
	if got := r.data(t, ld); got != 7 {
		t.Fatalf("reader after invalidation saw %d, want 7", got)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	r := newRig(t, 2)
	r.issue(0, mem.OpLoad, 0x400, 0)
	r.issue(1, mem.OpLoad, 0x400, 0)
	r.run()
	st := r.issue(0, mem.OpStore, 0x400, 5)
	r.run()
	_ = r.data(t, st)
	m := r.col.Matrix("CPU-L1")
	if m.Hits[StateS][EvStore] == 0 || m.Hits[StateS][EvDataM] == 0 {
		t.Fatal("S-state upgrade path not exercised")
	}
	if r.col.Matrix("Directory").Hits[directory.StateCS][directory.EvCPUUpg] == 0 &&
		r.col.Matrix("Directory").Hits[directory.StateCM][directory.EvCPUUpg] == 0 {
		t.Fatal("directory upgrade event not recorded")
	}
}

func TestSilentUpgradeFromExclusive(t *testing.T) {
	r := newRig(t, 1)
	r.issue(0, mem.OpLoad, 0x500, 0) // sole reader → E
	r.run()
	st := r.issue(0, mem.OpStore, 0x500, 3)
	r.run()
	_ = r.data(t, st)
	if r.col.Matrix("CPU-L1").Hits[StateE][EvStore] == 0 {
		t.Fatal("E→M silent upgrade not recorded")
	}
	// No directory traffic for the silent upgrade.
	if r.col.Matrix("Directory").Hits[directory.StateCM][directory.EvCPUUpg] != 0 {
		t.Fatal("silent upgrade leaked to the directory")
	}
}

func TestDirtyWriteBackOnReplacement(t *testing.T) {
	r := newRig(t, 1)
	// 512B 2-way: lines 0x0, 0x200, 0x400 map to set 0.
	r.issue(0, mem.OpStore, 0x000, 1)
	r.run()
	r.issue(0, mem.OpStore, 0x200, 2)
	r.run()
	r.issue(0, mem.OpStore, 0x400, 3)
	r.run()
	if got := r.store.ReadWord(0x000); got != 1 {
		t.Fatalf("dirty victim not written back: memory holds %d", got)
	}
	m := r.col.Matrix("CPU-L1")
	if m.Hits[StateM][EvRepl] == 0 || m.Hits[StateI][EvWBAck] == 0 {
		t.Fatal("write-back path events missing")
	}
	// And the data must still be readable afterwards.
	ld := r.issue(0, mem.OpLoad, 0x000, 0)
	r.run()
	if r.data(t, ld) != 1 {
		t.Fatal("written-back line lost its data")
	}
}

func TestOwnedStateServesWithoutMemoryWrite(t *testing.T) {
	r := newRig(t, 2)
	r.issue(0, mem.OpStore, 0x600, 11)
	r.run()
	r.issue(1, mem.OpLoad, 0x600, 0)
	r.run()
	// Owner downgraded M→O and served the data; memory may stay stale.
	if r.col.Matrix("CPU-L1").Hits[StateM][EvPrbShr] == 0 {
		t.Fatal("downgrade to O not recorded")
	}
	// A second store from the owner upgrades O→M.
	st := r.issue(0, mem.OpStore, 0x600, 12)
	r.run()
	_ = r.data(t, st)
	if r.col.Matrix("CPU-L1").Hits[StateO][EvStore] == 0 {
		t.Fatal("O-state upgrade not recorded")
	}
	ld := r.issue(1, mem.OpLoad, 0x600, 0)
	r.run()
	if got := r.data(t, ld); got != 12 {
		t.Fatalf("reader saw %d after O upgrade, want 12", got)
	}
}

// TestResetFieldAudit pins the Cache's field set: a field added later
// must be classified here, and so cannot escape Reset (see package
// audit).
func TestResetFieldAudit(t *testing.T) {
	const (
		wiring = "wiring: fixed at construction, survives Reset"
		reset  = "state: Reset empties it in place"
		stats  = "stats: Reset zeroes"
	)
	audit.Fields(t, Cache{}, map[string]string{
		"k": wiring, "id": wiring, "machine": wiring, "dir": wiring,
		"onReq": wiring, "onResp": wiring,
		"reqLink":  "link: Reset drops its queued requests and write-backs",
		"respLink": "link: Reset drops its queued responses",
		"lines":    "pool: Reset re-parks every victim line",
		"msgFree":  "pool: delivered messages, kept across Reset (messages in flight at Reset are dropped)",
		"client":   "wiring: set by SetClient, survives Reset",
		"Bugs":     "wiring: injected bugs, survive Reset",
		"array":    "state: Reset invalidates every line",
		"tbes":     reset, "vics": reset, "stalled": reset, "outstanding": reset,
		"loads": stats, "loadHits": stats, "stores": stats, "storeHits": stats, "writebacks": stats,
	})
}

// TestNoMaps pins that a CPU cache's state holds no Go map (see
// audit.NoMaps), bar the backing store's far-page map.
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, Cache{}, "Store.far")
}

// countClient counts responses without keeping them.
type countClient struct{ n int }

func (c *countClient) HandleResponse(*mem.Response) { c.n++ }

// TestCPURoundTripZeroAllocs pins the CPU side's message plane at zero
// allocations in steady state, in the style of sim's
// TestEventLoopZeroAllocs. Each round is a load miss through the
// directory and the memory controller back as a fill and a response; a
// store whose exclusive request probes the first cache's copy and
// collects its ack; and two loads that evict the now-dirty line, whose
// write-back returns the line to memory so the next round starts over.
func TestCPURoundTripZeroAllocs(t *testing.T) {
	r := newRig(t, 2)
	cl := &countClient{}
	for _, c := range r.caches {
		c.SetClient(cl)
	}
	// A, B and C share set 0 of the 2-way, 4-set caches.
	const a, b, c mem.Addr = 0x000, 0x100, 0x200
	var reqs [4]mem.Request
	issue := func(i, cpu int, op mem.Op, addr mem.Addr) {
		reqs[i] = mem.Request{ID: uint64(i + 1), Op: op, Addr: addr, Data: 7}
		r.caches[cpu].Issue(&reqs[i])
		r.run()
	}
	round := func() {
		issue(0, 0, mem.OpLoad, a)
		issue(1, 1, mem.OpStore, a)
		issue(2, 1, mem.OpLoad, b)
		issue(3, 1, mem.OpLoad, c)
	}
	for i := 0; i < 8; i++ {
		round() // warm the links, free lists, pools and tables
	}
	_, probes0, _ := r.dir.Stats()
	_, _, _, _, wbs0 := r.caches[1].Stats()
	reads0, _, _, _ := r.dir.Memory().Stats()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("steady-state CPU round trip allocates %.1f objects, want 0", n)
	}
	_, probes, _ := r.dir.Stats()
	_, _, _, _, wbs := r.caches[1].Stats()
	reads, _, _, _ := r.dir.Memory().Stats()
	if probes == probes0 || wbs == wbs0 || reads == reads0 || cl.n == 0 {
		t.Fatalf("rounds sent %d probes, %d write-backs, %d memory reads and %d responses: the round trip was not exercised",
			probes-probes0, wbs-wbs0, reads-reads0, cl.n)
	}
}
