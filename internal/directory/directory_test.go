package directory

import (
	"strings"
	"testing"

	"drftest/internal/audit"
	"drftest/internal/coverage"
	"drftest/internal/mem"
	"drftest/internal/memctrl"
	"drftest/internal/protocol"
	"drftest/internal/sim"
)

// fakeCPU is a scriptable CPUPort.
type fakeCPU struct {
	probes []bool // inv flags, in order
	ack    func(inv bool) (dirty []byte, fromVic bool)
}

func (f *fakeCPU) Probe(line mem.Addr, inv bool, ack func([]byte, bool)) {
	f.probes = append(f.probes, inv)
	if f.ack != nil {
		d, v := f.ack(inv)
		ack(d, v)
		return
	}
	ack(nil, false)
}

// fakeGPU is a scriptable GPUPort.
type fakeGPU struct{ probes int }

func (f *fakeGPU) ProbeInv(line mem.Addr, done func()) {
	f.probes++
	done()
}

func newDir(t *testing.T) (*sim.Kernel, *Directory, *mem.Store, *coverage.Collector) {
	t.Helper()
	k := sim.NewKernel()
	col := coverage.NewCollector(NewSpec())
	store := mem.NewStore()
	ctrl := memctrl.New(k, memctrl.DefaultConfig(), store, nil)
	return k, New(k, col, nil, ctrl, 64), store, col
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
	d.FetchLine(0x40, 64, func(data *mem.Line, _ any) {
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
	d.AttachGPU(gpu)
	cpu := d.AttachCPU(&fakeCPU{})
	d.FetchLine(0x80, 64, func(l *mem.Line, _ any) { l.Release() }, nil)
	k.RunUntilIdle()
	var kind FillKind
	d.CPURead(cpu, 0x80, func(_ []byte, fk FillKind) { kind = fk })
	k.RunUntilIdle()
	if gpu.probes != 1 {
		t.Fatalf("GPU probed %d times, want 1", gpu.probes)
	}
	if kind != FillE {
		t.Fatalf("sole CPU reader got %v, want FillE", kind)
	}
	if d.state(0x80) != StateCM {
		t.Fatal("E-grant should make the line CM (potential dirty owner)")
	}
}

func TestStaleWriteBackIgnored(t *testing.T) {
	k, d, store, col := newDir(t)
	cpu := d.AttachCPU(&fakeCPU{})
	store.WriteWord(0x100, 1)
	// Write-back for a line the directory thinks is uncached: the
	// victim raced a probe; memory must not be clobbered.
	stale := make([]byte, 64)
	stale[0] = 0xFF
	done := false
	d.CPUWriteBack(cpu, 0x100, stale, func() { done = true })
	k.RunUntilIdle()
	if !done {
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
	d.FetchLine(0x140, 64, func(l *mem.Line, _ any) { l.Release() }, nil)
	nacked := false
	d.Atomic(0x140, 1, func(_ uint32, nack bool, _ any) { nacked = nack }, nil)
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
	d.CPUReadX(cpu, 0x180, false, func([]byte, FillKind) {})
	k.RunUntilIdle()
	if d.state(0x180) != StateCM {
		t.Fatal("CPU should own the line")
	}
	// First atomic: NACK + cleanup; retry until success.
	var old uint32
	var fire func()
	fire = func() {
		d.Atomic(0x180, 1, func(o uint32, nack bool, _ any) {
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
	d.FetchLine(0x200, 64, func(l *mem.Line, _ any) { order = append(order, 1); l.Release() }, nil)
	d.FetchLine(0x200, 64, func(l *mem.Line, _ any) { order = append(order, 2); l.Release() }, nil)
	payload := d.lines.Get(64)
	clear(payload.Data)
	d.WriteLine(0x200, payload, func(any) { order = append(order, 3) }, nil)
	k.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("blocked ops completed out of order: %v", order)
	}
}

func TestUpgradeVsFullFill(t *testing.T) {
	k, d, _, col := newDir(t)
	cpu := d.AttachCPU(&fakeCPU{})
	d.CPURead(cpu, 0x240, func([]byte, FillKind) {})
	k.RunUntilIdle()
	// Upgrade: requester still holds the line → nil data fill.
	var data []byte = []byte{1}
	d.CPUReadX(cpu, 0x240, true, func(b []byte, _ FillKind) { data = b })
	k.RunUntilIdle()
	if data != nil {
		t.Fatal("upgrade should carry no data")
	}
	if col.Matrix("Directory").Hits[StateCM][EvCPUUpg] == 0 {
		t.Fatal("[CM,CPU_Upg] not recorded")
	}
	// Stale upgrade: have=true but directory no longer lists the cpu.
	d2cpu := d.AttachCPU(&fakeCPU{})
	d.CPUReadX(d2cpu, 0x240, true, func(b []byte, _ FillKind) { data = b })
	k.RunUntilIdle()
	if data == nil {
		t.Fatal("stale upgrade must be serviced as a full fill")
	}
}

// TestDirectorySpecTextRoundTrip: the directory table survives the
// SLICC-like textual form.
func TestDirectorySpecTextRoundTrip(t *testing.T) {
	orig := NewSpec()
	var b strings.Builder
	if err := orig.Format(&b); err != nil {
		t.Fatal(err)
	}
	re, err := protocol.ParseSpec(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(re) {
		t.Fatalf("round trip changed the table: %v", orig.Diff(re))
	}
}

// TestDirectorySteadyStateAllocs pins the closure-free transaction
// engine: once the TBE pool, stall queues and response FIFO are warm,
// a round of GPU fetches, write-throughs and atomics over a fixed
// working set allocates nothing. (CPU/DMA read responses are excluded:
// they hand out a fresh copy of borrowed bytes by contract.)
func TestDirectorySteadyStateAllocs(t *testing.T) {
	k, d, _, _ := newDir(t)
	pool := mem.NewLinePool(64)
	lines := []mem.Addr{0x000, 0x040, 0x080, 0x0c0, 0x100, 0x140, 0x180, 0x1c0}
	round := func() {
		for _, ln := range lines {
			d.FetchLine(ln, 64, func(l *mem.Line, _ any) { l.Release() }, nil)
		}
		k.RunUntilIdle()
		for _, ln := range lines {
			wl := pool.Get(64)
			wl.Data[0] = byte(ln)
			d.WriteLine(ln, wl, func(any) {}, nil)
		}
		k.RunUntilIdle()
		for _, ln := range lines {
			d.Atomic(ln, 1, func(uint32, bool, any) {}, nil)
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

// TestNoMaps pins that the directory's state holds no Go map (see
// audit.NoMaps), bar the backing store's far-page map.
func TestNoMaps(t *testing.T) {
	audit.NoMaps(t, Directory{}, "Store.far")
}
