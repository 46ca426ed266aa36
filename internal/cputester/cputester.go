// Package cputester implements the Wood-et-al-style random tester for
// the CPU side of the heterogeneous system (§II.B, §IV.C).
//
// Unlike the GPU tester it assumes a strong (SC-like) memory model:
// once a store's response returns, its value is globally visible, so
// the tester needs no episodes — it serializes conflicting accesses by
// claiming a location for the duration of each outstanding operation
// and checks every load against a single expected value per location.
// Its role in the paper is to activate the directory transitions the
// GPU tester cannot reach: CPU fills, upgrades, probes and dirty
// write-backs.
package cputester

import (
	"fmt"
	"time"

	"drftest/internal/mem"
	"drftest/internal/moesi"
	"drftest/internal/rng"
	"drftest/internal/sim"
)

// Config parameterizes a CPU tester run (Table III's CPU column).
type Config struct {
	Seed uint64
	// OpsPerCPU is the test length (paper: 100 … 1M loads).
	OpsPerCPU int
	// NumLocations is how many words the tester touches.
	NumLocations int
	// AddressRangeBytes spreads the locations for false sharing.
	AddressRangeBytes uint64
	// StoreFraction is the probability an op is a store.
	StoreFraction float64
	// DeadlockThreshold / CheckPeriod drive the forward-progress scan.
	DeadlockThreshold uint64
	CheckPeriod       sim.Tick
}

// DefaultConfig returns a moderate CPU tester setup.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		OpsPerCPU:         2000,
		NumLocations:      256,
		StoreFraction:     0.5,
		DeadlockThreshold: 1_000_000,
		CheckPeriod:       50_000,
	}
}

// Admission limits: past them a run is a mistake, not a test — New
// dies sizing its locations, a heartbeat wraps tick arithmetic, or the
// run outlasts any use (the paper's longest is 1M loads per CPU).
const (
	MaxLocations  = 1 << 24
	MaxRangeBytes = 1 << 32
	MaxOpsPerCPU  = 1 << 30
)

// Validate reports, naming the field, why a tester cannot be built from
// c; nil means New will place its locations and the run will end. A
// zero count means "default"; a negative one is a mistake, and so is a
// count past its admission limit and an address range with fewer word
// slots than there are locations to place in it.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		n    int
	}{{"OpsPerCPU", c.OpsPerCPU}, {"NumLocations", c.NumLocations}} {
		if f.n < 0 {
			return fmt.Errorf("cputester: %s must not be negative, got %d", f.name, f.n)
		}
	}
	for _, f := range []struct {
		name   string
		n, max uint64
	}{
		{"OpsPerCPU", uint64(c.OpsPerCPU), MaxOpsPerCPU}, {"NumLocations", uint64(c.NumLocations), MaxLocations},
		{"AddressRangeBytes", c.AddressRangeBytes, MaxRangeBytes}, {"CheckPeriod", uint64(c.CheckPeriod), uint64(sim.MaxDelay)},
	} {
		if f.n > f.max {
			return fmt.Errorf("cputester: %s %d exceeds the admission limit of %d", f.name, f.n, f.max)
		}
	}
	if d := c.withDefaults(); d.AddressRangeBytes/mem.WordSize < uint64(d.NumLocations) {
		return fmt.Errorf("cputester: AddressRangeBytes %d too small for %d locations of %d bytes",
			d.AddressRangeBytes, d.NumLocations, mem.WordSize)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.OpsPerCPU <= 0 {
		c.OpsPerCPU = 1000
	}
	if c.NumLocations <= 0 {
		c.NumLocations = 256
	}
	if c.AddressRangeBytes == 0 {
		c.AddressRangeBytes = 2 * uint64(c.NumLocations) * mem.WordSize
	}
	if c.StoreFraction <= 0 || c.StoreFraction >= 1 {
		c.StoreFraction = 0.5
	}
	if c.DeadlockThreshold == 0 {
		c.DeadlockThreshold = 1_000_000
	}
	if c.CheckPeriod == 0 {
		c.CheckPeriod = 50_000
	}
	return c
}

// location is one tester word with its claim state.
type location struct {
	addr    mem.Addr
	value   uint32
	writer  int // CPU with an outstanding store, or -1
	readers int // CPUs with outstanding loads
}

// Failure is one detected CPU-side bug.
type Failure struct {
	Tick     uint64
	Addr     mem.Addr
	CPU      int
	Expected uint32
	Got      uint32
	Deadlock bool
	Message  string
}

func (f *Failure) Error() string { return f.Message }

// Report summarizes a CPU tester run.
type Report struct {
	Failures     []*Failure
	OpsIssued    uint64
	OpsCompleted uint64
	SimTicks     uint64
	WallTime     time.Duration
}

// Passed reports whether the run found no bugs.
func (r *Report) Passed() bool { return len(r.Failures) == 0 }

type cpuState struct {
	id      int
	done    int
	loc     *location
	isStore bool
	stval   uint32

	// req is the core's reusable request slot: each CPU has exactly one
	// operation in flight and the cache retains no pointer to it past
	// the response, so a fresh struct per op buys nothing. issueFn is
	// the pre-bound continuation scheduled after every response, so the
	// steady-state issue loop allocates neither requests nor closures.
	req     mem.Request
	issueFn func()
}

// Tester drives one moesi cache per simulated CPU core.
type Tester struct {
	k      *sim.Kernel
	cfg    Config
	rnd    *rng.PCG
	caches []*moesi.Cache
	cpus   []*cpuState
	locs   []*location

	nextID       uint64
	opsIssued    uint64
	opsCompleted uint64
	lastWorkTick uint64
	failures     []*Failure
	deadlockSeen bool
	finished     int
}

// New builds a CPU tester over the given caches (one per core).
func New(k *sim.Kernel, caches []*moesi.Cache, cfg Config) *Tester {
	cfg = cfg.withDefaults()
	t := &Tester{k: k, cfg: cfg, rnd: rng.New(cfg.Seed, 0xC4D), caches: caches}
	slots := int(cfg.AddressRangeBytes / mem.WordSize)
	chosen := make(map[int]struct{}, cfg.NumLocations)
	for len(t.locs) < cfg.NumLocations {
		s := t.rnd.Intn(slots)
		if _, dup := chosen[s]; dup {
			continue
		}
		chosen[s] = struct{}{}
		t.locs = append(t.locs, &location{addr: mem.Addr(s * mem.WordSize), writer: -1})
	}
	for i, c := range caches {
		st := &cpuState{id: i}
		st.issueFn = func() { t.issue(st) }
		t.cpus = append(t.cpus, st)
		c.SetClient(&cpuClient{t: t, cpu: st})
	}
	return t
}

// cpuClient routes one core's responses back into the tester.
type cpuClient struct {
	t   *Tester
	cpu *cpuState
}

func (c *cpuClient) HandleResponse(resp *mem.Response) { c.t.handle(c.cpu, resp) }

// Start schedules every core's first operation and the deadlock scan.
func (t *Tester) Start() {
	for _, cpu := range t.cpus {
		t.k.Schedule(0, cpu.issueFn)
	}
	t.k.Schedule(t.cfg.CheckPeriod, t.heartbeat)
}

// Run executes the whole test and returns its report.
func (t *Tester) Run() *Report {
	start := time.Now()
	t.Start()
	t.k.RunUntilIdle()
	t.finish()
	return &Report{
		Failures:     t.failures,
		OpsIssued:    t.opsIssued,
		OpsCompleted: t.opsCompleted,
		SimTicks:     t.lastWorkTick,
		WallTime:     time.Since(start),
	}
}

// Failures returns the bugs found so far.
func (t *Tester) Failures() []*Failure { return t.failures }

// RNGState returns the tester's PCG stream state, captured for replay
// artifacts.
func (t *Tester) RNGState() (state, inc uint64) { return t.rnd.State() }

// traceComponent names the tester in kernel trace entries.
const traceComponent = "cpu-tester"

func (t *Tester) issue(cpu *cpuState) {
	if t.k.Stopped() {
		return
	}
	if cpu.done >= t.cfg.OpsPerCPU {
		t.finished++
		return
	}
	isStore := t.rnd.Bool(t.cfg.StoreFraction)
	loc := t.pick(cpu.id, isStore)
	if loc == nil {
		isStore = false
		loc = t.pick(cpu.id, false)
	}
	if loc == nil {
		// Every location is being written; retry shortly.
		t.k.Schedule(10, cpu.issueFn)
		return
	}
	cpu.loc = loc
	cpu.isStore = isStore
	t.nextID++
	cpu.req = mem.Request{ID: t.nextID, Addr: loc.addr, ThreadID: cpu.id}
	req := &cpu.req
	if isStore {
		loc.writer = cpu.id
		cpu.stval = uint32(t.nextID)
		req.Op = mem.OpStore
		req.Data = cpu.stval
	} else {
		loc.readers++
		req.Op = mem.OpLoad
	}
	t.opsIssued++
	if t.k.Tracing() {
		label := "issue load"
		if isStore {
			label = "issue store"
		}
		t.k.Trace(traceComponent, label, uint64(loc.addr))
	}
	t.caches[cpu.id].Issue(req)
}

// pick finds a location cpu may access: stores need the location
// wholly unclaimed; loads only need no foreign store outstanding.
func (t *Tester) pick(cpu int, store bool) *location {
	for try := 0; try < 64; try++ {
		loc := t.locs[t.rnd.Intn(len(t.locs))]
		if store && loc.writer < 0 && loc.readers == 0 {
			return loc
		}
		if !store && loc.writer < 0 {
			return loc
		}
	}
	return nil
}

func (t *Tester) handle(cpu *cpuState, resp *mem.Response) {
	t.opsCompleted++
	t.lastWorkTick = resp.Tick
	loc := cpu.loc
	if cpu.isStore {
		if t.k.Tracing() {
			t.k.Trace(traceComponent, "resp store", uint64(loc.addr))
		}
		loc.writer = -1
		loc.value = cpu.stval
	} else {
		if t.k.Tracing() {
			t.k.Trace(traceComponent, "resp load", uint64(loc.addr))
		}
		loc.readers--
		if resp.Data != loc.value {
			if t.k.Tracing() {
				t.k.Trace(traceComponent, "fail value-mismatch", uint64(loc.addr))
			}
			t.failures = append(t.failures, &Failure{
				Tick: resp.Tick, Addr: loc.addr, CPU: cpu.id,
				Expected: loc.value, Got: resp.Data,
				Message: fmt.Sprintf("cpu %d load of %#x returned %d, expected %d",
					cpu.id, uint64(loc.addr), resp.Data, loc.value),
			})
			t.k.Stop()
			return
		}
	}
	cpu.done++
	t.k.Schedule(1, cpu.issueFn)
}

func (t *Tester) heartbeat() {
	if t.finished == len(t.cpus) || t.k.Stopped() {
		return
	}
	now := uint64(t.k.Now())
	for _, c := range t.caches {
		c.ForEachOutstanding(func(r *mem.Request) {
			if t.deadlockSeen || now-r.IssueTick <= t.cfg.DeadlockThreshold {
				return
			}
			t.deadlockSeen = true
			if t.k.Tracing() {
				t.k.Trace(traceComponent, "fail deadlock", uint64(r.Addr))
			}
			t.failures = append(t.failures, &Failure{
				Tick: now, Addr: r.Addr, CPU: r.CUID, Deadlock: true,
				Message: fmt.Sprintf("no forward progress: %s outstanding for %d ticks", r, now-r.IssueTick),
			})
			t.k.Stop()
		})
	}
	if !t.deadlockSeen {
		t.k.Schedule(t.cfg.CheckPeriod, t.heartbeat)
	}
}

func (t *Tester) finish() {
	if len(t.failures) > 0 {
		return
	}
	outstanding := 0
	for _, c := range t.caches {
		outstanding += c.OutstandingCount()
	}
	if outstanding > 0 {
		t.failures = append(t.failures, &Failure{
			Tick: uint64(t.k.Now()), Deadlock: true,
			Message: fmt.Sprintf("simulation idle with %d CPU requests outstanding", outstanding),
		})
	}
}
