// Package harness assembles systems and drives the paper's
// experiments: the Table III tester configuration sweep, the
// application suite baseline, the CPU tester runs, and the coverage
// comparisons behind every figure of the evaluation section.
package harness

import (
	"drftest/internal/apps"
	"drftest/internal/cache"
	"drftest/internal/coverage"
	"drftest/internal/directory"
	"drftest/internal/dma"
	"drftest/internal/mem"
	"drftest/internal/memctrl"
	"drftest/internal/moesi"
	"drftest/internal/protocol"
	"drftest/internal/sim"
	"drftest/internal/trace"
	"drftest/internal/viper"
)

// traceReplay attaches to k, the kernel of a fresh build re-running a,
// a trace ring of a.TraceCapacity entries (<= 0 → DefaultTraceCapacity)
// and returns it. Replay and newBisectRun build the only traced runs
// there are, through it: every other run is untraced.
func traceReplay(k *sim.Kernel, a *Artifact) *trace.Ring {
	capacity := a.TraceCapacity
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	r := trace.NewRing(capacity)
	k.SetTracer(r)
	return r
}

// GPUBuild is a GPU-only system ready for a tester or workload.
type GPUBuild struct {
	K   *sim.Kernel
	Sys *viper.System
	Col *coverage.Collector
}

// BuildGPU assembles a GPU-only system with coverage collection
// (either protocol variant).
func BuildGPU(cfg viper.Config) *GPUBuild {
	k := sim.NewKernel()
	col := coverage.NewCollector(viper.NewTCPSpec(), viper.NewTCCSpec(), viper.NewTCCWBSpec())
	sys := viper.NewSystem(k, cfg, col)
	return &GPUBuild{K: k, Sys: sys, Col: col}
}

// DefaultCPUCache is the small corepair cache of Table III's CPU
// tester column.
var DefaultCPUCache = cache.Config{SizeBytes: 512, LineSize: 64, Assoc: 2}

// LargeCPUCache is Table III's large corepair configuration.
var LargeCPUCache = cache.Config{SizeBytes: 512 * 1024, LineSize: 64, Assoc: 8}

// CPUBuild is a CPU-only system (caches + directory) for the CPU
// tester.
type CPUBuild struct {
	K      *sim.Kernel
	Caches []*moesi.Cache
	Dir    *directory.Directory
	Store  *mem.Store
	Col    *coverage.Collector
}

// BuildCPU assembles numCPUs moesi caches over a directory.
func BuildCPU(numCPUs int, cacheCfg cache.Config) *CPUBuild {
	k := sim.NewKernel()
	col := coverage.NewCollector(moesi.NewCPUSpec(), directory.NewSpec())
	store := mem.NewStore()
	ctrl := memctrl.New(k, memctrl.DefaultConfig(), store, nil)
	dir := directory.New(k, col, nil, ctrl, cacheCfg.LineSize)
	spec := moesi.NewCPUSpec()
	caches := make([]*moesi.Cache, numCPUs)
	for i := range caches {
		caches[i] = moesi.NewCache(k, spec, col, nil, cacheCfg, dir)
	}
	return &CPUBuild{K: k, Caches: caches, Dir: dir, Store: store, Col: col}
}

// HeteroBuild is the full heterogeneous system: a VIPER GPU over the
// shared directory, CPU caches, and a DMA engine.
type HeteroBuild struct {
	K      *sim.Kernel
	GPU    *viper.System
	Caches []*moesi.Cache
	Dir    *directory.Directory
	DMA    *dma.Engine
	Store  *mem.Store
	Col    *coverage.Collector

	// The application run's own state, recycled from one application
	// to the next: built by the first run, reset by every later one.
	runner apps.Runner
	host   hostDriver
}

// BuildHetero assembles the heterogeneous system of §IV.C.
func BuildHetero(gpuCfg viper.Config, numCPUs int, cpuCache cache.Config) *HeteroBuild {
	if gpuCfg.L1.LineSize != cpuCache.LineSize {
		panic("harness: GPU and CPU line sizes must match")
	}
	k := sim.NewKernel()
	col := coverage.NewCollector(
		viper.NewTCPSpec(), viper.NewTCCSpec(),
		moesi.NewCPUSpec(), directory.NewSpec(),
	)
	store := mem.NewStore()
	ctrl := memctrl.New(k, gpuCfg.Mem, store, nil)
	dir := directory.New(k, col, nil, ctrl, gpuCfg.L1.LineSize)
	id := dir.AddGPU()
	gpu := viper.NewSystemWithBackend(k, gpuCfg, col, dir.GPUBackend(id))
	dir.BindGPU(id, gpu)

	spec := moesi.NewCPUSpec()
	caches := make([]*moesi.Cache, numCPUs)
	for i := range caches {
		caches[i] = moesi.NewCache(k, spec, col, nil, cpuCache, dir)
	}
	return &HeteroBuild{
		K: k, GPU: gpu, Caches: caches, Dir: dir,
		DMA:   dma.New(k, dir, gpuCfg.L1.LineSize),
		Store: store, Col: col,
	}
}

// Reset returns the system to its just-built state, so an application
// run on it is bit-identical to one on a fresh BuildHetero (see DESIGN
// §11.1). The kernel goes first, dropping every pending event; then
// each layer empties its state in place, the GPU before the CPU caches,
// directory, DMA engine, memory controller (whose private line pool
// re-parks every line) and store, and the collector last.
func (b *HeteroBuild) Reset() {
	b.K.Reset()
	b.GPU.Reset()
	for _, c := range b.Caches {
		c.Reset()
	}
	b.Dir.Reset()
	b.DMA.Reset()
	ctrl := b.Dir.Memory()
	ctrl.Reset()
	ctrl.Pool().Reset()
	b.Col.Reset()
}

// --- Impossible-cell masks (the Impsb class of Fig. 7) ---

// TCCImpossibleGPUOnly returns the L2 cells unreachable when no CPU
// shares the directory: every probe-invalidate cell (probes only come
// from a remote client) and the atomic NACK (only a directory NACKs).
func TCCImpossibleGPUOnly() coverage.CellSet {
	s := coverage.CellSet{}
	for _, st := range []int{viper.TCCStateI, viper.TCCStateV, viper.TCCStateIV, viper.TCCStateA} {
		s.Add(st, viper.TCCPrbInv)
	}
	s.Add(viper.TCCStateA, viper.TCCAtomicND)
	return s
}

// TCPImpossible returns the L1 cells unreachable under the tester —
// none. Every defined TCP cell is reachable in GPU-only mode (audited
// empirically; TestTCPFullCoverageReachable pins it by driving a swarm
// campaign to 100% L1 coverage), so campaign summaries mask nothing:
// an L1 cell directed mode is chasing is always genuinely reachable.
func TCPImpossible() coverage.CellSet {
	return coverage.CellSet{}
}

// TCCImpossibleHetero returns the L2 cells unreachable in the
// heterogeneous system: none — with other clients on the directory,
// every defined L2 cell (including probes racing in-flight fills) is
// reachable.
func TCCImpossibleHetero() coverage.CellSet {
	return coverage.CellSet{}
}

// Sanity check at init time: masks must only name defined cells.
func init() {
	tcc := viper.NewTCCSpec()
	for cell := range TCCImpossibleGPUOnly() {
		if tcc.Cell(cell[0], cell[1]).Kind == protocol.Undefined {
			panic("harness: impossible mask names an undefined TCC cell")
		}
	}
}
