package directory

import (
	"slices"
	"testing"

	"drftest/internal/audit"
	"drftest/internal/coverage"
	"drftest/internal/mem"
	"drftest/internal/memctrl"
	"drftest/internal/sim"
)

// fakeCPU is a scriptable CPUPort that records what reaches it.
type fakeCPU struct {
	probes []bool // inv flags, in order
	ack    func(inv bool) (dirty []byte, fromVic bool)
	fills  []fill
	wbAcks int
}

// fill is one Fill's arrival, its borrowed data copied out.
type fill struct {
	kind FillKind
	data []byte
}

func (f *fakeCPU) Probe(line mem.Addr, inv bool) ([]byte, bool) {
	f.probes = append(f.probes, inv)
	if f.ack != nil {
		return f.ack(inv)
	}
	return nil, false
}

func (f *fakeCPU) Fill(line mem.Addr, data []byte, kind FillKind) {
	f.fills = append(f.fills, fill{kind: kind, data: slices.Clone(data)})
}

func (f *fakeCPU) WriteBackDone(line mem.Addr) { f.wbAcks++ }

// last returns the most recent fill.
func (f *fakeCPU) last(t *testing.T) fill {
	t.Helper()
	if len(f.fills) == 0 {
		t.Fatal("no fill arrived")
	}
	return f.fills[len(f.fills)-1]
}

// fakeGPU is a scriptable GPUPort.
type fakeGPU struct{ probes int }

func (f *fakeGPU) ProbeInv(line mem.Addr, done func(any), ctx any) {
	f.probes++
	done(ctx)
}

// newDir builds a directory with one GPU, a fakeGPU in slot 0; tests
// drive that GPU's requests through d.GPUBackend(0).
func newDir(t *testing.T) (*sim.Kernel, *Directory, *mem.Store, *coverage.Collector) {
	t.Helper()
	k := sim.NewKernel()
	col := coverage.NewCollector(NewSpec())
	store := mem.NewStore()
	ctrl := memctrl.New(k, memctrl.DefaultConfig(), store, nil)
	d := New(k, col, nil, ctrl, 64)
	d.BindGPU(d.AddGPU(), &fakeGPU{})
	return k, d, store, col
}

func TestSpecCounts(t *testing.T) {
	s := NewSpec()
	if s.NumCells() != 70 {
		t.Fatalf("directory has %d cells, want 70", s.NumCells())
	}
	coverable := s.NumCells() - s.CountKind(0) // protocol.Undefined == 0
	if coverable != 50 {
		t.Fatalf("coverable cells = %d, want 50", coverable)
	}
}

func TestGPUFetchSetsGState(t *testing.T) {
	k, d, store, _ := newDir(t)
	store.WriteWord(0x40, 7)
	var got []byte
	d.GPUBackend(0).FetchLine(0x40, 64, func(data *mem.Line, _ any) {
		got = append([]byte(nil), data.Data...)
		data.Release()
	}, nil)
	k.RunUntilIdle()
	if got == nil || got[0] != 7 {
		t.Fatal("fetch returned wrong data")
	}
	if d.state(0x40) != StateG {
		t.Fatalf("state after GPU fetch = %s", States[d.state(0x40)])
	}
}

func TestCPUReadProbesGPU(t *testing.T) {
	k, d, _, _ := newDir(t)
	gpu := &fakeGPU{}
	d.BindGPU(0, gpu)
	fc := &fakeCPU{}
	cpu := d.AttachCPU(fc)
	d.GPUBackend(0).FetchLine(0x80, 64, func(l *mem.Line, _ any) { l.Release() }, nil)
	k.RunUntilIdle()
	d.CPURead(cpu, 0x80)
	k.RunUntilIdle()
	if gpu.probes != 1 {
		t.Fatalf("GPU probed %d times, want 1", gpu.probes)
	}
	if kind := fc.last(t).kind; kind != FillE {
		t.Fatalf("sole CPU reader got %v, want FillE", kind)
	}
	if d.state(0x80) != StateCM {
		t.Fatal("E-grant should make the line CM (potential dirty owner)")
	}
}

func TestStaleWriteBackIgnored(t *testing.T) {
	k, d, store, col := newDir(t)
	fc := &fakeCPU{}
	cpu := d.AttachCPU(fc)
	store.WriteWord(0x100, 1)
	// Write-back for a line the directory thinks is uncached: the
	// victim raced a probe; memory must not be clobbered.
	stale := make([]byte, 64)
	stale[0] = 0xFF
	d.CPUWriteBack(cpu, 0x100, stale)
	k.RunUntilIdle()
	if fc.wbAcks != 1 {
		t.Fatal("stale vic never acknowledged")
	}
	if store.ReadWord(0x100) != 1 {
		t.Fatal("stale victim corrupted memory")
	}
	if col.Matrix("Directory").Hits[StateU][EvCPUVic] == 0 {
		t.Fatal("[U,CPU_Vic] stale path not recorded")
	}
	if _, _, staleVics := d.Stats(); staleVics != 1 {
		t.Fatalf("staleVics=%d", staleVics)
	}
}

func TestAtomicNackInB(t *testing.T) {
	k, d, _, col := newDir(t)
	// Start a long transaction on the line, then fire an atomic at it
	// mid-flight: the atomic must NACK, not stall.
	d.GPUBackend(0).FetchLine(0x140, 64, func(l *mem.Line, _ any) { l.Release() }, nil)
	nacked := false
	d.GPUBackend(0).Atomic(0x140, 1, func(_ uint32, nack bool, _ any) { nacked = nack }, nil)
	k.RunUntilIdle()
	if !nacked {
		t.Fatal("atomic on a busy line was not NACKed")
	}
	if col.Matrix("Directory").Hits[StateB][EvGPUAt] == 0 {
		t.Fatal("[B,GPU_At] not recorded")
	}
}

func TestAtomicCleansCPUCopies(t *testing.T) {
	k, d, store, _ := newDir(t)
	dirty := make([]byte, 64)
	dirty[0] = 9
	fc := &fakeCPU{ack: func(inv bool) ([]byte, bool) {
		if inv {
			return dirty, false
		}
		return nil, false
	}}
	cpu := d.AttachCPU(fc)
	d.CPUReadX(cpu, 0x180, false)
	k.RunUntilIdle()
	if d.state(0x180) != StateCM {
		t.Fatal("CPU should own the line")
	}
	// First atomic: NACK + cleanup; retry until success.
	var old uint32
	var fire func()
	fire = func() {
		d.GPUBackend(0).Atomic(0x180, 1, func(o uint32, nack bool, _ any) {
			if nack {
				k.Schedule(20, fire)
				return
			}
			old = o + 1 // mark completion (old is 9<<0? value check below)
		}, nil)
	}
	fire()
	k.RunUntilIdle()
	if len(fc.probes) == 0 {
		t.Fatal("CPU copy never probed")
	}
	if store.ByteAt(0x180) == 0 {
		t.Fatal("dirty CPU data never reached memory")
	}
	if old == 0 {
		t.Fatal("atomic never succeeded after cleanup")
	}
	if d.state(0x180) != StateU && d.state(0x180) != StateG {
		t.Fatalf("post-atomic state = %s", States[d.state(0x180)])
	}
}

func TestBlockingSerializesSameLine(t *testing.T) {
	k, d, _, _ := newDir(t)
	order := []int{}
	d.GPUBackend(0).FetchLine(0x200, 64, func(l *mem.Line, _ any) { order = append(order, 1); l.Release() }, nil)
	d.GPUBackend(0).FetchLine(0x200, 64, func(l *mem.Line, _ any) { order = append(order, 2); l.Release() }, nil)
	payload := d.lines.Get(64)
	clear(payload.Data)
	d.GPUBackend(0).WriteLine(0x200, payload, func(any) { order = append(order, 3) }, nil)
	k.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("blocked ops completed out of order: %v", order)
	}
}

func TestUpgradeVsFullFill(t *testing.T) {
	k, d, _, col := newDir(t)
	fc := &fakeCPU{}
	cpu := d.AttachCPU(fc)
	d.CPURead(cpu, 0x240)
	k.RunUntilIdle()
	// Upgrade: requester still holds the line → nil data fill.
	d.CPUReadX(cpu, 0x240, true)
	k.RunUntilIdle()
	if len(fc.fills) != 2 || fc.last(t).data != nil {
		t.Fatal("upgrade should carry no data")
	}
	if col.Matrix("Directory").Hits[StateCM][EvCPUUpg] == 0 {
		t.Fatal("[CM,CPU_Upg] not recorded")
	}
	// Stale upgrade: have=true but directory no longer lists the cpu.
	fc2 := &fakeCPU{}
	d2cpu := d.AttachCPU(fc2)
	d.CPUReadX(d2cpu, 0x240, true)
	k.RunUntilIdle()
	if fc2.last(t).data == nil {
		t.Fatal("stale upgrade must be serviced as a full fill")
	}
}

// TestDirectorySteadyStateAllocs pins the closure-free transaction
// engine: once the TBE pool, stall queues, message free lists and links
// are warm, a round of GPU fetches, write-throughs and atomics over a
// fixed working set allocates nothing. (The CPU side's round trip is
// pinned with real caches in moesi's TestCPURoundTripZeroAllocs.)
func TestDirectorySteadyStateAllocs(t *testing.T) {
	k, d, _, _ := newDir(t)
	pool := mem.NewLinePool(64)
	lines := []mem.Addr{0x000, 0x040, 0x080, 0x0c0, 0x100, 0x140, 0x180, 0x1c0}
	round := func() {
		for _, ln := range lines {
			d.GPUBackend(0).FetchLine(ln, 64, func(l *mem.Line, _ any) { l.Release() }, nil)
		}
		k.RunUntilIdle()
		for _, ln := range lines {
			wl := pool.Get(64)
			wl.Data[0] = byte(ln)
			d.GPUBackend(0).WriteLine(ln, wl, func(any) {}, nil)
		}
		k.RunUntilIdle()
		for _, ln := range lines {
			d.GPUBackend(0).Atomic(ln, 1, func(uint32, bool, any) {}, nil)
		}
		k.RunUntilIdle()
	}
	for i := 0; i < 3; i++ {
		round() // warm pools, maps and rings
	}
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("steady-state directory round allocates %.1f objects, want 0", n)
	}
}

// TestResetFieldAudit pins the Directory's field set: a field added
// later must be classified here, and so cannot escape Reset (see
// package audit).
func TestResetFieldAudit(t *testing.T) {
	const (
		wiring = "wiring: fixed at construction or attach, survives Reset"
		reset  = "state: Reset empties it in place"
	)
	audit.Fields(t, Directory{}, map[string]string{
		"k": wiring, "machine": wiring, "mem": wiring + " (its owner resets the controller)",
		"lineSize": wiring, "gpus": wiring, "cpus": wiring, "dmas": wiring,
		"onProbe": wiring, "onGPUProbed": wiring, "onProbeAck": wiring, "onResp": wiring,
		"onGPUFill": wiring, "onReadData": wiring, "onWriteDone": wiring,
		"onDirtyWB": wiring, "onAtomicOld": wiring,
		"probeLink":  "link: Reset drops its queued probes",
		"ackLink":    "link: Reset drops its queued probe answers",
		"respLink":   "link: Reset drops its queued responses",
		"lines":      "pool: Reset re-parks every line",
		"gpuHolders": reset, "sharers": reset, "owner": reset, "tbes": reset, "stalled": reset,
		"tbeFree":   "pool: zeroed TBEs, kept across Reset",
		"probeFree": "pool: delivered probe records, kept across Reset (records in flight at Reset are dropped)",
		"respFree":  "pool: delivered response records, kept across Reset (records in flight at Reset are dropped)",
		"nacks":     "stats: Reset zeroes", "probes": "stats: Reset zeroes", "staleVics": "stats: Reset zeroes",
	})
}

// TestNoMaps pins that the directory's state holds no Go map (see
// audit.NoMaps), bar the backing store's far-page map.
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, Directory{}, "Store.far")
}
