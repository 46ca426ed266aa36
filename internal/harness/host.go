package harness

import (
	"drftest/internal/apps"
	"drftest/internal/mem"
	"drftest/internal/moesi"
	"drftest/internal/rng"
	"drftest/internal/sim"
)

// hostControlBase is the host threads' own control block, far from
// every GPU region.
const (
	hostControlBase   mem.Addr = 0x4000_0000
	hostControlStride mem.Addr = 1 << 12
)

// hostDriver models the CPU-side activity of an application run: host
// threads polling and updating the buffers the GPU kernel works on.
// It is deliberately light — real GPU applications keep the CPU mostly
// idle — but it is what makes the GPU L2 see probe-invalidations and
// the directory see CPU events during application-based testing.
//
// A HeteroBuild keeps one driver and resets it for every application:
// the threads, their request slots and their prebound continuations
// are built once.
type hostDriver struct {
	k       *sim.Kernel
	rnd     rng.PCG
	period  sim.Tick
	nextID  uint64
	running bool
	// sharedProb is the probability a host op polls the kernel's
	// shared buffer instead of the private control block.
	sharedProb float64
	threads    []hostThread
}

// hostThread is one host thread, driving one CPU cache with at most
// one request outstanding.
type hostThread struct {
	h       *hostDriver
	cpu     int
	cache   *moesi.Cache
	pending bool
	// opsLeft bounds the thread so the simulation drains even if the
	// kernel outlives the host's polling loop.
	opsLeft int
	// req is the thread's request slot, reissued only after its
	// response (pending).
	req     mem.Request
	issueFn func()
}

// resetHost readies b's host driver for one run: reseeded from seed,
// every thread idle with opsPerCPU operations to go and the client of
// its CPU cache.
func (b *HeteroBuild) resetHost(seed uint64, period sim.Tick, opsPerCPU int) *hostDriver {
	h := &b.host
	h.k = b.K
	h.rnd.Seed(seed, 0x405)
	h.period, h.nextID, h.running, h.sharedProb = period, 0, false, 0.05
	if len(h.threads) != len(b.Caches) {
		h.threads = make([]hostThread, len(b.Caches))
		for i := range h.threads {
			th := &h.threads[i]
			th.issueFn = func() { h.issue(th) }
		}
	}
	for i, c := range b.Caches {
		th := &h.threads[i]
		th.h, th.cpu, th.cache, th.pending, th.opsLeft = h, i, c, false, opsPerCPU
		c.SetClient(th)
	}
	return h
}

// HandleResponse implements mem.Requestor: the thread polls again a
// period after each response.
func (th *hostThread) HandleResponse(*mem.Response) {
	th.pending = false
	if h := th.h; h.running {
		h.k.Schedule(h.period, th.issueFn)
	}
}

func (h *hostDriver) start() {
	h.running = true
	for i := range h.threads {
		h.k.Schedule(sim.Tick(i)*7, h.threads[i].issueFn)
	}
}

func (h *hostDriver) stop() { h.running = false }

func (h *hostDriver) issue(th *hostThread) {
	if !h.running || th.pending || h.k.Stopped() || th.opsLeft <= 0 {
		return
	}
	th.opsLeft--
	th.pending = true
	h.nextID++
	// Real application hosts mostly spin on their own control block
	// (reads and writes); the kernel's shared buffer they only *poll*
	// read-only — inputs travel by DMA. The occasional shared-region
	// read is what provokes the CPU↔GPU probe traffic of Fig. 10
	// without the dirty-sharing churn only the random testers create.
	var addr mem.Addr
	shared := h.rnd.Bool(h.sharedProb)
	if shared {
		addr = apps.SharedRegionBase + mem.Addr(h.rnd.Intn(64*16)*mem.WordSize)
	} else {
		addr = hostControlBase + mem.Addr(th.cpu)*hostControlStride +
			mem.Addr(h.rnd.Intn(4*16)*mem.WordSize)
	}
	th.req = mem.Request{ID: 1<<40 | h.nextID, Addr: addr, ThreadID: th.cpu}
	if !shared && h.rnd.Bool(0.3) {
		th.req.Op = mem.OpStore
		th.req.Data = uint32(h.nextID)
	} else {
		th.req.Op = mem.OpLoad
	}
	th.cache.Issue(&th.req)
}
