package viper

import (
	"fmt"

	"drftest/internal/cache"
	"drftest/internal/mem"
	"drftest/internal/memctrl"
	"drftest/internal/network"
	"drftest/internal/protocol"
	"drftest/internal/rng"
	"drftest/internal/sim"
	"drftest/internal/stats"
)

// Config describes a GPU memory system under test.
type Config struct {
	// NumCUs is the number of compute units; each has a private L1
	// (TCP) and sequencer. The paper evaluates 8.
	NumCUs int
	// NumL2Slices banks the shared L2 by line address (real TCCs are
	// banked); each slice gets its own controller and an L2 cache of
	// the configured size. Zero means one slice.
	NumL2Slices int
	// L1 and L2 size the caches; both must share a line size.
	L1, L2 cache.Config
	// ReqLatency/RespLatency are the TCP↔TCC link latencies. Request
	// links are always ordered (FIFO) — VIPER's same-CU per-address
	// ordering depends on it — but response links may jitter.
	ReqLatency, RespLatency sim.Tick
	// RespJitter adds up to this many ticks of per-message random
	// latency on the TCC→TCP response links, reordering responses to
	// different lines the way an unordered virtual network would.
	// Responses to the same line cannot race (one transaction per line
	// at a time), so this is safe — and it widens the timing space the
	// tester explores. Zero disables jitter.
	RespJitter sim.Tick
	// JitterSeed seeds the response-jitter randomness.
	JitterSeed uint64
	// L1RespLatency is the sequencer's core-response latency.
	L1RespLatency sim.Tick
	// Mem configures the memory controller (ignored when the system is
	// built over an external backend such as the directory).
	Mem memctrl.Config
	// Bugs selects injected protocol bugs (zero value = correct).
	Bugs BugSet
	// WriteBackL2 selects the VIPER-WB protocol variant: the L2 holds
	// dirty data (the GPU's visibility point) and writes back to
	// memory only on eviction, QuickRelease-style. Write acks return
	// at L2 acceptance, so releases drain much faster. GPU-only: a
	// write-back L2 cannot sit under the heterogeneous directory
	// (memory would be stale for CPU readers).
	WriteBackL2 bool
}

// Validate reports, naming the field, why a system cannot be built
// from c; nil means NewSystem will not panic on its sizing.
func (c Config) Validate() error {
	if c.NumCUs <= 0 {
		return fmt.Errorf("viper: NumCUs must be positive, got %d", c.NumCUs)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("viper: L1: %w", err)
	}
	if err := c.L2.Validate(); err != nil {
		return fmt.Errorf("viper: L2: %w", err)
	}
	if c.L1.LineSize != c.L2.LineSize {
		return fmt.Errorf("viper: L1/L2 line size mismatch (%d vs %d)", c.L1.LineSize, c.L2.LineSize)
	}
	return nil
}

// DefaultConfig returns the paper's application-run GPU configuration:
// 8 CUs, 16KB L1s, 256KB shared L2, 64B lines.
func DefaultConfig() Config {
	return Config{
		NumCUs:        8,
		L1:            cache.Config{SizeBytes: 16 * 1024, LineSize: 64, Assoc: 4},
		L2:            cache.Config{SizeBytes: 256 * 1024, LineSize: 64, Assoc: 16},
		ReqLatency:    8,
		RespLatency:   8,
		L1RespLatency: 1,
		Mem:           memctrl.DefaultConfig(),
	}
}

// SmallCacheConfig returns the paper's "small" tester configuration
// (256B 2-way L1, 1KB 2-way L2) that stresses replacement transitions.
func SmallCacheConfig() Config {
	c := DefaultConfig()
	c.L1 = cache.Config{SizeBytes: 256, LineSize: 64, Assoc: 2}
	c.L2 = cache.Config{SizeBytes: 1024, LineSize: 64, Assoc: 2}
	return c
}

// LargeCacheConfig returns the paper's "large" tester configuration
// (256KB 16-way L1, 1MB 16-way L2) that stresses hit transitions.
func LargeCacheConfig() Config {
	c := DefaultConfig()
	c.L1 = cache.Config{SizeBytes: 256 * 1024, LineSize: 64, Assoc: 16}
	c.L2 = cache.Config{SizeBytes: 1024 * 1024, LineSize: 64, Assoc: 16}
	return c
}

// MixedCacheConfig returns the paper's "mixed" tester configuration
// (small L1, large L2).
func MixedCacheConfig() Config {
	c := DefaultConfig()
	c.L1 = cache.Config{SizeBytes: 256, LineSize: 64, Assoc: 2}
	c.L2 = cache.Config{SizeBytes: 1024 * 1024, LineSize: 64, Assoc: 16}
	return c
}

// System is an assembled GPU memory system: sequencers and L1s per CU,
// a shared L2, and a backend (memory controller or directory).
type System struct {
	Kernel *sim.Kernel
	Cfg    Config
	Seqs   []*Sequencer
	TCPs   []*TCP
	// TCCs holds the (possibly banked) shared L2 slices of the
	// write-through protocol; TCC is the first slice. For the VIPER-WB
	// variant both are nil and l2s holds TCCWB controllers.
	TCC  *TCC
	TCCs []*TCC
	l2s  []l2ctrl
	// Mem is non-nil only for systems built directly over a memory
	// controller.
	Mem *memctrl.Controller

	faults []*protocol.FaultError
	// jrnd is the response-jitter stream shared by every jittered
	// response crossbar, retained so Reset can reseed it.
	jrnd *rng.PCG
	// respXBars holds the per-slice response crossbars, retained so
	// SetRespJitter can retune them between runs.
	respXBars []*network.Crossbar
	// pool is the shared message pool, retained for snapshots.
	pool *msgPool
}

// jitterStream is the PCG stream selector of the response-jitter
// randomness (arbitrary, fixed: reseeding on Reset must reproduce the
// construction-time stream exactly).
const jitterStream = 0x31771

// Reset returns the system to its just-built state for the same
// config: caches invalidated, controller transaction and stall state
// dropped, stats zeroed, response-jitter randomness reseeded, faults
// cleared, and — for systems owning their memory — the controller and
// backing store emptied. The kernel MUST be reset first (Kernel.Reset):
// the state recycled here may still be referenced by pending events,
// and dropping those events is what makes the recycling sound. After
// Kernel.Reset + System.Reset, a run from seed s is bit-identical to a
// run from seed s on a freshly built system (the harness pins this
// with a bit-identity test).
//
// Systems built over an external backend (NewSystemWithBackend) only
// reset the GPU-side state; the backend owner must reset it alongside.
func (s *System) Reset() {
	if s.Kernel.Pending() > 0 {
		panic("viper: System.Reset with pending kernel events — call Kernel.Reset first")
	}
	s.faults = nil
	*s.jrnd = *rng.New(s.Cfg.JitterSeed, jitterStream)
	for _, seq := range s.Seqs {
		seq.reset()
	}
	for _, tcp := range s.TCPs {
		tcp.reset()
	}
	for _, l2 := range s.l2s {
		l2.reset()
	}
	if s.Mem != nil {
		s.Mem.Reset()
	}
	// Last: force-reclaim every payload line. The controllers above
	// dropped their references without releasing (their state was
	// recycled wholesale), so the pool re-parks the whole registry.
	s.pool.reset()
}

// SetRespJitter retunes the response-network jitter window and its
// seed between runs of a reused system: it updates the config so the
// next Reset reseeds the jitter stream from seed, and widens (or
// zeroes) every response crossbar's window. Only valid immediately
// before Reset — in-flight messages must be gone first — so callers
// sequence Kernel.Reset, SetRespJitter, System.Reset. After that
// sequence a run is bit-identical to one on a freshly built system
// with the same RespJitter/JitterSeed in its config.
func (s *System) SetRespJitter(jitter sim.Tick, seed uint64) {
	if s.Kernel.Pending() > 0 {
		panic("viper: SetRespJitter with pending kernel events — call Kernel.Reset first")
	}
	s.Cfg.RespJitter = jitter
	s.Cfg.JitterSeed = seed
	for _, xb := range s.respXBars {
		xb.SetJitter(jitter)
	}
}

// l2ctrl is the controller surface TCPs and the System need from an
// L2 slice, satisfied by both TCC (write-through) and TCCWB
// (write-back).
type l2ctrl interface {
	FromTCP(msg *tcpMsg)
	ProbeInv(line mem.Addr, done func())
	AuditAgainstStore(st *mem.Store) []string
	Flush(st *mem.Store)
	Stats() map[string]uint64
	slice() int
	attachTCP(t *TCP)
	// reset returns the slice to its just-built state (see System.Reset
	// for the contract; the kernel must already be reset).
	reset()
	// snapshot/restore capture and reinstate the slice's full state
	// (see System.Snapshot for the contract).
	snapshotInto(dst any) any
	restore(snap any)
}

// sliceOf routes a line address to its L2 slice.
func (s *System) sliceOf(line mem.Addr) l2ctrl {
	if len(s.l2s) == 1 {
		return s.l2s[0]
	}
	idx := int(line/mem.Addr(s.Cfg.L2.LineSize)) % len(s.l2s)
	return s.l2s[idx]
}

// ProbeInv implements the directory's GPUPort over all slices.
func (s *System) ProbeInv(line mem.Addr, done func()) {
	s.sliceOf(line).ProbeInv(line, done)
}

// AuditL2 compares every slice's cached lines against the backing
// store and returns any divergences. For the write-back variant the
// dirty lines are flushed first (they are legitimately newer than
// memory); for write-through nothing is flushed, so a stale L2 line —
// the LostWriteRace signature — still surfaces.
func (s *System) AuditL2(store *mem.Store) []string {
	if s.Cfg.WriteBackL2 {
		for _, l2 := range s.l2s {
			l2.Flush(store)
		}
	}
	var out []string
	for _, l2 := range s.l2s {
		out = append(out, l2.AuditAgainstStore(store)...)
	}
	return out
}

// Latencies aggregates every sequencer's per-class request latency
// histograms.
func (s *System) Latencies() *stats.LatencySet {
	agg := stats.NewLatencySet("gpu")
	for _, seq := range s.Seqs {
		agg.Merge(seq.Latencies())
	}
	return agg
}

// L2Stats aggregates the activity counters of every L2 slice.
func (s *System) L2Stats() map[string]uint64 {
	out := map[string]uint64{}
	for _, l2 := range s.l2s {
		for k, v := range l2.Stats() {
			out[k] += v
		}
	}
	return out
}

// MemBackend adapts a memory controller to the TCC's Backend interface
// (GPU-only systems; it never NACKs atomics). The callback shapes
// match exactly, so every method is a pure pass-through.
type MemBackend struct{ Ctrl *memctrl.Controller }

// FetchLine implements Backend.
func (b MemBackend) FetchLine(line mem.Addr, size int, done func(*mem.Line, any), ctx any) {
	b.Ctrl.ReadLine(line, size, done, ctx)
}

// WriteLine implements Backend.
func (b MemBackend) WriteLine(line mem.Addr, payload *mem.Line, done func(any), ctx any) {
	b.Ctrl.WriteLine(line, payload, done, ctx)
}

// Atomic implements Backend.
func (b MemBackend) Atomic(addr mem.Addr, delta uint32, done func(uint32, bool, any), ctx any) {
	b.Ctrl.Atomic(addr, delta, done, ctx)
}

// NewSystem builds a GPU system over its own memory controller and
// backing store. The controller shares the system's line pool, so read
// fills and write payloads cross the memory boundary without copying
// and one pool snapshot covers every in-flight payload.
func NewSystem(k *sim.Kernel, cfg Config, rec protocol.Recorder) *System {
	lines := mem.NewLinePool(cfg.L1.LineSize)
	ctrl := memctrl.New(k, cfg.Mem, mem.NewStore(), lines)
	s := newSystem(k, cfg, rec, MemBackend{Ctrl: ctrl}, lines)
	s.Mem = ctrl
	return s
}

// NewSystemWithBackend builds a GPU system whose TCC sits on an
// external backend (e.g. the heterogeneous system directory). The
// system still owns its line pool; payload handles handed to (or
// received from) the backend carry their owning pool, so they cross
// the boundary safely.
func NewSystemWithBackend(k *sim.Kernel, cfg Config, rec protocol.Recorder, backend Backend) *System {
	return newSystem(k, cfg, rec, backend, mem.NewLinePool(cfg.L1.LineSize))
}

func newSystem(k *sim.Kernel, cfg Config, rec protocol.Recorder, backend Backend, lines *mem.LinePool) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.WriteBackL2 {
		if _, direct := backend.(MemBackend); !direct {
			panic("viper: VIPER-WB is GPU-only — it cannot sit under a shared directory (memory would be stale for other clients)")
		}
	}
	if cfg.NumL2Slices <= 0 {
		cfg.NumL2Slices = 1
	}
	s := &System{Kernel: k, Cfg: cfg}
	onFault := func(f *protocol.FaultError) {
		s.faults = append(s.faults, f)
		k.Stop()
	}

	jrnd := rng.New(cfg.JitterSeed, jitterStream)
	s.jrnd = jrnd
	pool := newMsgPool(cfg.L1.LineSize, lines)
	s.pool = pool
	tccSpec := NewTCCSpec()
	wbSpec := NewTCCWBSpec()
	for sl := 0; sl < cfg.NumL2Slices; sl++ {
		// Response crossbars are always built jitter-capable: a jittered
		// link with a zero window is behaviorally identical to an ordered
		// one (Send/SendMsg only consult the stream when jitter > 0), and
		// it lets SetRespJitter retune the window between reset runs of a
		// reused system.
		respXBar := network.NewJitterCrossbar(k, fmt.Sprintf("tcc%d->tcp", sl), cfg.NumCUs, cfg.RespLatency, cfg.RespJitter, jrnd)
		s.respXBars = append(s.respXBars, respXBar)
		if cfg.WriteBackL2 {
			wb := newTCCWB(k, wbSpec, rec, onFault, cfg.L2, backend, respXBar, cfg.Bugs, pool)
			wb.sliceIndex = sl
			s.l2s = append(s.l2s, wb)
		} else {
			tcc := newTCC(k, tccSpec, rec, onFault, cfg.L2, backend, respXBar, cfg.Bugs, pool)
			tcc.sliceIndex = sl
			s.TCCs = append(s.TCCs, tcc)
			s.l2s = append(s.l2s, tcc)
		}
	}
	if !cfg.WriteBackL2 {
		s.TCC = s.TCCs[0]
	}

	tcpSpec := NewTCPSpec()
	for cu := 0; cu < cfg.NumCUs; cu++ {
		links := make([]*network.Link, cfg.NumL2Slices)
		for sl := range links {
			links[sl] = network.NewLink(k, fmt.Sprintf("tcp%d->tcc%d", cu, sl), cfg.ReqLatency)
		}
		tcp := newTCP(k, cu, tcpSpec, rec, onFault, cfg.L1, links, s.sliceOf, pool)
		for _, l2 := range s.l2s {
			l2.attachTCP(tcp)
		}
		seq := newSequencer(k, cu, tcp, cfg.L1RespLatency, cfg.Bugs)
		s.TCPs = append(s.TCPs, tcp)
		s.Seqs = append(s.Seqs, seq)
	}
	return s
}

// Faults returns protocol faults (undefined transitions) observed so
// far; a correct protocol under any workload returns none.
func (s *System) Faults() []*protocol.FaultError { return s.faults }

// OutstandingRequests counts in-flight requests across all sequencers.
func (s *System) OutstandingRequests() int {
	n := 0
	for _, seq := range s.Seqs {
		n += seq.OutstandingCount()
	}
	return n
}

// ForEachOutstanding visits every in-flight request in the system.
func (s *System) ForEachOutstanding(visit func(*mem.Request)) {
	for _, seq := range s.Seqs {
		seq.ForEachOutstanding(visit)
	}
}

// SystemSnapshot captures the full GPU memory-system state. Obtain via
// Snapshot, reinstate via Restore.
type SystemSnapshot struct {
	jrnd   rng.PCG
	faults []*protocol.FaultError
	pool   *poolSnapshot
	seqs   []seqSnapshot
	tcps   []tcpSnapshot
	l2s    []any
	mem    *memctrl.Snapshot
}

// EnableCheckpointing arms the system for mid-run snapshots: the
// message pool starts tracking every pooled object it hands out, so a
// later Snapshot can capture — and Restore reinstate — the contents of
// messages that are in flight at snapshot time. Without it, Snapshot
// is restricted to quiescent states (no pending kernel events) and
// skips the pool entirely, keeping warm-fork snapshots cheap. Must be
// called before the run whose midpoints will be snapshotted; tracking
// stays on for the system's lifetime.
func (s *System) EnableCheckpointing() { s.pool.enableTracking() }

// Snapshot captures the system's complete state. With checkpointing
// enabled (EnableCheckpointing) any point is snapshottable, including
// mid-run with messages in flight; otherwise the system must be
// quiescent (no pending kernel events), which is the warm-fork case —
// no live messages means pooled contents need no capture. Note the
// kernel's own event state is snapshotted separately (Kernel.Snapshot);
// pairing the two captures a consistent cut.
func (s *System) Snapshot() *SystemSnapshot { return s.SnapshotInto(nil) }

// SnapshotInto is Snapshot refilling snap, a snapshot of this system
// the caller knows is dead (nil allocates): every controller's save
// reuses the storage its last save into snap left behind.
func (s *System) SnapshotInto(snap *SystemSnapshot) *SystemSnapshot {
	if !s.pool.track && s.Kernel.Pending() > 0 {
		panic("viper: System.Snapshot mid-run without EnableCheckpointing")
	}
	if snap == nil {
		snap = &SystemSnapshot{
			seqs: make([]seqSnapshot, len(s.Seqs)),
			tcps: make([]tcpSnapshot, len(s.TCPs)),
			l2s:  make([]any, len(s.l2s)),
		}
	}
	snap.jrnd = *s.jrnd
	snap.faults = append(snap.faults[:0], s.faults...)
	if s.pool.track {
		snap.pool = s.pool.snapshotInto(snap.pool)
	}
	for i, seq := range s.Seqs {
		seq.snapshotInto(&snap.seqs[i])
	}
	for i, tcp := range s.TCPs {
		tcp.snapshotInto(&snap.tcps[i])
	}
	for i, l2 := range s.l2s {
		snap.l2s[i] = l2.snapshotInto(snap.l2s[i])
	}
	if s.Mem != nil {
		snap.mem = s.Mem.SnapshotInto(snap.mem)
	}
	return snap
}

// Restore reinstates a state captured by Snapshot on this system. The
// kernel must be restored (Kernel.Restore) or reset to a matching cut
// first, for the same reason Reset requires a reset kernel: events
// referencing recycled state must agree with the state being installed.
// After Restore the system is bit-identical to the snapshotted one —
// continuing the run replays the exact same future.
func (s *System) Restore(snap *SystemSnapshot) {
	*s.jrnd = snap.jrnd
	s.faults = append(s.faults[:0], snap.faults...)
	if snap.pool != nil {
		s.pool.restore(snap.pool)
	} else {
		// Quiescent snapshot: nothing referenced a payload line at the
		// cut, so whatever the abandoned run left live is force-
		// reclaimed wholesale (the message free stacks already hold
		// every recycled struct).
		s.pool.reset()
	}
	for i, seq := range s.Seqs {
		seq.restore(&snap.seqs[i])
	}
	for i, tcp := range s.TCPs {
		tcp.restore(&snap.tcps[i])
	}
	for i, l2 := range s.l2s {
		l2.restore(snap.l2s[i])
	}
	if s.Mem != nil {
		s.Mem.Restore(snap.mem)
	}
}
