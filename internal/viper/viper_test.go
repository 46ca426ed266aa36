package viper

import (
	"strings"
	"testing"

	"drftest/internal/cache"
	"drftest/internal/coverage"
	"drftest/internal/mem"
	"drftest/internal/protocol"
	"drftest/internal/sim"
)

// client records responses and can run a hook at delivery time.
type client struct {
	responses map[uint64]*mem.Response
	onResp    func(*mem.Response)
}

func newClient() *client { return &client{responses: make(map[uint64]*mem.Response)} }

func (c *client) HandleResponse(r *mem.Response) {
	cp := *r // the Response is only valid during the call (mem.Requestor)
	c.responses[r.Req.ID] = &cp
	if c.onResp != nil {
		c.onResp(&cp)
	}
}

type rig struct {
	k   *sim.Kernel
	sys *System
	col *coverage.Collector
	cl  *client
	id  uint64
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	k := sim.NewKernel()
	col := coverage.NewCollector(NewTCPSpec(), NewTCCSpec(), NewTCCWBSpec())
	sys := NewSystem(k, cfg, col)
	cl := newClient()
	for _, s := range sys.Seqs {
		s.SetClient(cl)
	}
	return &rig{k: k, sys: sys, col: col, cl: cl}
}

func (r *rig) issue(cu int, op mem.Op, addr mem.Addr, val uint32, thread int) uint64 {
	r.id++
	req := &mem.Request{ID: r.id, Op: op, Addr: addr, ThreadID: thread}
	if op == mem.OpStore {
		req.Data = val
	}
	if op == mem.OpAtomic {
		req.Operand = val
	}
	r.sys.Seqs[cu].Issue(req)
	return r.id
}

func (r *rig) run() { r.k.RunUntilIdle() }

func (r *rig) resp(t *testing.T, id uint64) *mem.Response {
	t.Helper()
	resp, ok := r.cl.responses[id]
	if !ok {
		t.Fatalf("no response for request %d", id)
	}
	return resp
}

func smallCfg() Config {
	c := SmallCacheConfig()
	c.NumCUs = 2
	return c
}

func TestSpecCellCounts(t *testing.T) {
	tcp := NewTCPSpec()
	if u, s, d := tcp.CountKind(protocol.Undefined), tcp.CountKind(protocol.Stall), tcp.CountKind(protocol.Defined); u != 3 || s != 3 || d != 15 {
		t.Fatalf("TCP cells U=%d S=%d D=%d, want 3/3/15", u, s, d)
	}
	tcc := NewTCCSpec()
	if u, s, d := tcc.CountKind(protocol.Undefined), tcc.CountKind(protocol.Stall), tcc.CountKind(protocol.Defined); u != 12 || s != 6 || d != 18 {
		t.Fatalf("TCC cells U=%d S=%d D=%d, want 12/6/18", u, s, d)
	}
}

func TestLoadMissFillsFromMemory(t *testing.T) {
	r := newRig(t, smallCfg())
	r.sys.Mem.Store().WriteWord(0x100, 0xCAFE)
	id := r.issue(0, mem.OpLoad, 0x100, 0, 0)
	r.run()
	if got := r.resp(t, id).Data; got != 0xCAFE {
		t.Fatalf("load returned %#x, want 0xCAFE", got)
	}
	if r.col.Matrix("GPU-L1").Hits[TCPStateI][TCPLoad] == 0 {
		t.Fatal("[I,Load] not recorded")
	}
}

func TestLoadHitIsFasterAndRecorded(t *testing.T) {
	r := newRig(t, smallCfg())
	id1 := r.issue(0, mem.OpLoad, 0x100, 0, 0)
	r.run()
	t1 := r.resp(t, id1).Tick
	start := uint64(r.k.Now())
	id2 := r.issue(0, mem.OpLoad, 0x100, 0, 0)
	r.run()
	t2 := r.resp(t, id2).Tick
	if lat1, lat2 := t1, t2-start; lat2 >= lat1 {
		t.Fatalf("hit latency %d not below miss latency %d", lat2, lat1)
	}
	if r.col.Matrix("GPU-L1").Hits[TCPStateV][TCPLoad] == 0 {
		t.Fatal("[V,Load] hit not recorded")
	}
}

func TestStoreThenLoadSameThread(t *testing.T) {
	r := newRig(t, smallCfg())
	r.issue(0, mem.OpStore, 0x200, 77, 0)
	id := r.issue(0, mem.OpLoad, 0x200, 0, 0)
	r.run()
	if got := r.resp(t, id).Data; got != 77 {
		t.Fatalf("own store not observed: got %d", got)
	}
}

// TestStoreLoadBackToBackNoDrain reproduces the racing case: the load
// is issued immediately after the store's (early) response, while the
// write-through is still in flight — per-address program order must
// still hold via the L1's write-merge buffer.
func TestStoreLoadBackToBackNoDrain(t *testing.T) {
	r := newRig(t, smallCfg())
	var loaded uint32
	stID := r.issue(0, mem.OpStore, 0x240, 55, 0)
	r.cl.onResp = func(resp *mem.Response) {
		if resp.Req.ID == stID {
			id := r.issue(0, mem.OpLoad, 0x240, 0, 0)
			r.cl.onResp = func(resp2 *mem.Response) {
				if resp2.Req.ID == id {
					loaded = resp2.Data
				}
			}
		}
	}
	r.run()
	if loaded != 55 {
		t.Fatalf("load right after store saw %d, want 55", loaded)
	}
}

func TestAtomicFetchAddOldValues(t *testing.T) {
	r := newRig(t, smallCfg())
	id1 := r.issue(0, mem.OpAtomic, 0x300, 5, 0)
	r.run()
	id2 := r.issue(1, mem.OpAtomic, 0x300, 5, 1)
	r.run()
	if r.resp(t, id1).Data != 0 || r.resp(t, id2).Data != 5 {
		t.Fatalf("atomic olds %d,%d want 0,5", r.resp(t, id1).Data, r.resp(t, id2).Data)
	}
	if got := r.sys.Mem.Store().ReadWord(0x300); got != 10 {
		t.Fatalf("memory holds %d, want 10", got)
	}
}

// TestRelaxedStaleReadThenAcquire shows VIPER's relaxed window and the
// acquire fix: a cached copy may go stale after a remote write; a
// load-acquire flash-invalidates and re-fetches fresh data.
func TestRelaxedStaleReadThenAcquire(t *testing.T) {
	r := newRig(t, smallCfg())
	warm := r.issue(0, mem.OpLoad, 0x400, 0, 0)
	r.run()
	if r.resp(t, warm).Data != 0 {
		t.Fatal("expected initial zero")
	}
	st := r.issue(1, mem.OpStore, 0x400, 123, 1)
	r.run()
	_ = st
	stale := r.issue(0, mem.OpLoad, 0x400, 0, 0)
	r.run()
	if got := r.resp(t, stale).Data; got != 0 {
		t.Fatalf("expected stale cached 0 before acquire, got %d", got)
	}
	r.id++
	acq := &mem.Request{ID: r.id, Op: mem.OpAtomic, Addr: 0x500, Operand: 1, Acquire: true, ThreadID: 0}
	r.sys.Seqs[0].Issue(acq)
	r.run()
	fresh := r.issue(0, mem.OpLoad, 0x400, 0, 0)
	r.run()
	if got := r.resp(t, fresh).Data; got != 123 {
		t.Fatalf("post-acquire load saw %d, want 123", got)
	}
	if r.col.Matrix("GPU-L1").Hits[TCPStateV][TCPEvict] == 0 {
		t.Fatal("[V,Evict] flash invalidation not recorded")
	}
}

// TestReleaseWaitsForWriteDrain: a store-release must not complete
// before the thread's earlier write-throughs are globally visible.
func TestReleaseWaitsForWriteDrain(t *testing.T) {
	r := newRig(t, smallCfg())
	r.issue(0, mem.OpStore, 0x600, 9, 0)
	r.id++
	rel := &mem.Request{ID: r.id, Op: mem.OpAtomic, Addr: 0x700, Operand: 1, Release: true, ThreadID: 0}
	relID := r.id
	var memAtRelease uint32
	r.cl.onResp = func(resp *mem.Response) {
		if resp.Req.ID == relID {
			memAtRelease = r.sys.Mem.Store().ReadWord(0x600)
		}
	}
	r.sys.Seqs[0].Issue(rel)
	r.run()
	r.resp(t, relID)
	if memAtRelease != 9 {
		t.Fatalf("release completed before write drained (memory held %d)", memAtRelease)
	}
}

func TestFalseSharingWritesBothLand(t *testing.T) {
	r := newRig(t, smallCfg())
	// Same 64B line, different words, different CUs.
	r.issue(0, mem.OpStore, 0x800, 1, 0)
	r.issue(1, mem.OpStore, 0x804, 2, 1)
	r.run()
	st := r.sys.Mem.Store()
	if st.ReadWord(0x800) != 1 || st.ReadWord(0x804) != 2 {
		t.Fatalf("false-sharing writes lost: %d %d", st.ReadWord(0x800), st.ReadWord(0x804))
	}
}

func TestAtomicToLineStallsFollowers(t *testing.T) {
	r := newRig(t, smallCfg())
	a := r.issue(0, mem.OpAtomic, 0x900, 1, 0)
	l := r.issue(0, mem.OpLoad, 0x904, 0, 1) // same line, different word
	r.run()
	r.resp(t, a)
	r.resp(t, l)
	if r.col.Matrix("GPU-L1").Hits[TCPStateA][TCPLoad] == 0 {
		t.Fatal("[A,Load] stall not recorded")
	}
}

func TestDuplicateRequestIDPanics(t *testing.T) {
	r := newRig(t, smallCfg())
	r.issue(0, mem.OpLoad, 0x100, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate ID accepted")
		}
	}()
	req := &mem.Request{ID: 1, Op: mem.OpLoad, Addr: 0x200}
	r.sys.Seqs[0].Issue(req)
}

func TestIssueBeforeClientPanics(t *testing.T) {
	k := sim.NewKernel()
	sys := NewSystem(k, smallCfg(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Issue before SetClient accepted")
		}
	}()
	sys.Seqs[0].Issue(&mem.Request{ID: 1, Op: mem.OpLoad})
}

func TestMismatchedLineSizesPanic(t *testing.T) {
	cfg := smallCfg()
	cfg.L2.LineSize = 128
	cfg.L2.SizeBytes = 2048
	defer func() {
		if recover() == nil {
			t.Fatal("line-size mismatch accepted")
		}
	}()
	NewSystem(sim.NewKernel(), cfg, nil)
}

func TestL2AuditCleanAfterDrain(t *testing.T) {
	r := newRig(t, smallCfg())
	for i := 0; i < 32; i++ {
		r.issue(i%2, mem.OpStore, mem.Addr(0x1000+i*4), uint32(i), i%4)
		r.issue((i+1)%2, mem.OpLoad, mem.Addr(0x1000+i*4), 0, i%4)
	}
	r.run()
	if m := r.sys.TCC.AuditAgainstStore(r.sys.Mem.Store()); len(m) != 0 {
		t.Fatalf("L2 diverged from memory: %v", m)
	}
}

// TestAuditL2Allocs: the end-of-run audit runs once per campaign seed,
// so a clean one allocates nothing — both L2 variants read memory
// through a line of scratch the controller keeps (auditBuf: contents
// dead between calls, so outside Snapshot/Restore/Reset).
func TestAuditL2Allocs(t *testing.T) {
	for _, cfg := range []Config{smallCfg(), wbCfg()} {
		r := newRig(t, cfg)
		for i := 0; i < 8; i++ {
			r.issue(i%2, mem.OpStore, mem.Addr(0x1000+i*64), uint32(i), i%4)
		}
		r.run()
		st := r.sys.Mem.Store()
		if m := r.sys.AuditL2(st); len(m) != 0 {
			t.Fatalf("L2 diverged from memory: %v", m)
		}
		if n := testing.AllocsPerRun(10, func() { r.sys.AuditL2(st) }); n != 0 {
			t.Errorf("WriteBackL2=%v: a clean AuditL2 allocated %v objects, want 0", cfg.WriteBackL2, n)
		}
	}
}

// TestConfigValidate: the stock configurations validate, and each way
// a config can fail to size a system is reported by field, not
// panicked on.
func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), SmallCacheConfig(), LargeCacheConfig(), MixedCacheConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("stock config rejected: %v", err)
		}
	}
	for want, mutate := range map[string]func(*Config){
		"NumCUs":    func(c *Config) { c.NumCUs = 0 },
		"L1":        func(c *Config) { c.L1.Assoc = 3 },
		"L2":        func(c *Config) { c.L2 = cache.Config{} },
		"line size": func(c *Config) { c.L1.LineSize = 32 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Validate = %v, want an error naming %q", err, want)
		}
	}
}

func TestBuggyTCCFailsAudit(t *testing.T) {
	cfg := smallCfg()
	cfg.Bugs.LostWriteRace = true
	r := newRig(t, cfg)
	// Warm the L2 line, then race two write-throughs on it.
	r.issue(0, mem.OpLoad, 0x2000, 0, 0)
	r.run()
	r.issue(0, mem.OpStore, 0x2000, 1, 0)
	r.issue(1, mem.OpStore, 0x2004, 2, 1)
	r.issue(0, mem.OpStore, 0x2008, 3, 0)
	r.run()
	if m := r.sys.TCC.AuditAgainstStore(r.sys.Mem.Store()); len(m) == 0 {
		t.Skip("race window not hit under this timing")
	}
}

// TestSpecsRoundTripThroughText: every protocol table survives the
// SLICC-like textual form unchanged — the tables truly are data.
func TestSpecsRoundTripThroughText(t *testing.T) {
	for _, mk := range []func() *protocol.Spec{NewTCPSpec, NewTCCSpec, NewTCCWBSpec} {
		orig := mk()
		var b strings.Builder
		if err := orig.Format(&b); err != nil {
			t.Fatal(err)
		}
		re, err := protocol.ParseSpec(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("%s: reparse failed: %v", orig.Name, err)
		}
		if !orig.Equal(re) {
			t.Fatalf("%s: text round trip changed the table: %v", orig.Name, orig.Diff(re))
		}
	}
}
