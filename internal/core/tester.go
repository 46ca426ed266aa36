package core

import (
	"fmt"
	"time"

	"drftest/internal/checker"
	"drftest/internal/mem"
	"drftest/internal/rng"
	"drftest/internal/sim"
	"drftest/internal/table"
	"drftest/internal/viper"
)

type opKind uint8

const (
	opAcquire opKind = iota
	opLoad
	opStore
	opRelease
	// opExtra is a plain (non-acquire, non-release) atomic on the
	// episode's own sync variable, generated only when contention
	// leaves no race-free data action — sync variables are never
	// claimed, so it is always legal under DRF.
	opExtra
)

// traceComponent names the tester in kernel trace entries.
const traceComponent = "gpu-tester"

// testerStream is the PCG stream selector of the tester's main RNG
// (arbitrary, fixed: Reset must reproduce the construction-time stream).
const testerStream = 0xD2F

// Op names and the trace labels built from them once, not per op: a
// traced run labels every issue and every response.
var (
	opNames     = [...]string{opAcquire: "acquire", opLoad: "load", opStore: "store", opRelease: "release", opExtra: "extra-atomic"}
	issueLabels = prefixed("issue ", opNames[:])
	respLabels  = prefixed("resp ", opNames[:])
)

// prefixed returns names with prefix put before each.
func prefixed(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return out
}

// genOp is one pre-generated episode action.
type genOp struct {
	kind     opKind
	v        *variable
	storeVal uint32
}

// episode is one live critical-section-shaped action sequence.
type episode struct {
	id        uint64
	sync      *variable
	ops       []genOp
	next      int
	createSeq uint64
	traceSeq  int
	// claims holds the kinds of access the episode claimed at
	// generation, by variable ID: what claimOp asks to tell a first claim
	// of a kind from a repeat.
	claims table.Table[int, claimKind]
	// claimOrder lists claimed variables in claim order: retirement and
	// the generator's candidate test walk it instead of the table.
	claimOrder []*variable
}

// thread is one tester lane.
type thread struct {
	id, wf, lane int
	ep           *episode
	episodesDone int
	curOp        genOp
}

// wavefront is a lockstep group of threads bound to one CU.
type wavefront struct {
	id, cu      int
	threads     []*thread
	outstanding int
	finished    bool
	// issueFn is the wavefront's pre-bound next-round closure, built
	// once at construction so per-round scheduling never allocates.
	issueFn func()
	// issueTag marks issue-round events with a per-wavefront ordering
	// unit for schedule exploration: a chooser may interleave different
	// wavefronts' rounds. Rounds draw from the tester's shared RNG, so
	// they carry no line footprint (dependent with everything).
	issueTag uint64
}

// Tester is the autonomous DRF GPU tester: it generates wavefronts of
// DRF episodes against a VIPER system, checks every response, and
// reports failures with Table V-style context.
type Tester struct {
	k       *sim.Kernel
	cfg     Config
	systems []*viper.System
	seqs    []*viper.Sequencer
	rnd     *rng.PCG

	space   *addressSpace
	threads []*thread
	wfs     []*wavefront
	log     *EventLog

	failures      []*Failure
	lastWorkTick  uint64
	genSeq        uint64
	trace         *checker.Trace
	stream        *checker.Pipeline
	epMeta        []checker.EpisodeMeta // by episode ID - 1, when recording
	nextReqID     uint64
	nextEpisodeID uint64
	storeValue    uint32
	finishedWFs   int
	done          bool

	// reqSlab hands out requests in chunks so the issue path pays one
	// allocation per reqSlabSize ops instead of one per op; heartbeatFn
	// is the pre-bound poller closure; epFree recycles retired episodes
	// (their claim tables and op slices) for the next generation.
	reqSlab     []mem.Request
	heartbeatFn func()
	epFree      []*episode

	// stats
	opsIssued, opsCompleted, episodesRetired uint64
	sampler                                  SamplerStats
}

// New builds a tester over sys. The tester registers itself as every
// sequencer's client.
func New(k *sim.Kernel, sys *viper.System, cfg Config) *Tester {
	return NewMulti(k, []*viper.System{sys}, cfg)
}

// NewMulti builds one tester spanning several GPU systems (a
// multi-GPU configuration over a shared directory, §III.B): wavefronts
// are distributed round-robin over every CU of every GPU, and the DRF
// checks apply globally.
func NewMulti(k *sim.Kernel, systems []*viper.System, cfg Config) *Tester {
	cfg = cfg.WithDefaults()
	t := &Tester{
		k:       k,
		cfg:     cfg,
		systems: systems,
		rnd:     rng.New(cfg.Seed, testerStream),
		log:     NewEventLog(cfg.LogCapacity),
	}
	lineSize := systems[0].Cfg.L1.LineSize
	for _, sys := range systems {
		if sys.Cfg.L1.LineSize != lineSize {
			panic("core: all GPUs under one tester must share a line size")
		}
		t.seqs = append(t.seqs, sys.Seqs...)
	}
	t.space = buildAddressSpace(t.rnd.Split(), cfg.NumSyncVars, cfg.NumDataVars, cfg.AddressRangeBytes, lineSize)
	if cfg.RecordTrace {
		t.trace = &checker.Trace{AtomicDelta: cfg.AtomicDelta}
	}
	if cfg.StreamCheck {
		t.stream = checker.NewPipeline(cfg.AtomicDelta, cfg.StreamInline)
	}

	t.buildWavefronts()
	t.heartbeatFn = t.heartbeat
	for _, seq := range t.seqs {
		seq.SetClient(t)
	}
	return t
}

// buildWavefronts (re)builds the wavefront and thread arrays for the
// current config's shape, round-robin over the CUs.
func (t *Tester) buildWavefronts() {
	t.threads = t.threads[:0]
	t.wfs = t.wfs[:0]
	for w := 0; w < t.cfg.NumWavefronts; w++ {
		wf := &wavefront{id: w, cu: w % len(t.seqs)}
		wf.issueFn = func() { t.issueRound(wf) }
		wf.issueTag = sim.MakeUnitTag(sim.CompTester, t.k.NewUnit())
		for l := 0; l < t.cfg.ThreadsPerWF; l++ {
			thr := &thread{id: len(t.threads), wf: w, lane: l}
			t.threads = append(t.threads, thr)
			wf.threads = append(wf.threads, thr)
		}
		t.wfs = append(t.wfs, wf)
	}
}

// Reset rearms the tester for a fresh run from seed over the same
// (already-reset) kernel and systems: episode, claim, reference and
// failure state is cleared, the main RNG is reseeded, and the random
// variable→address mapping is regenerated, so the subsequent Run is
// bit-identical to the run of a freshly constructed Tester with
// cfg.Seed = seed. The request slab, episode free list, wavefront
// wiring, and pre-bound closures are retained — their contents are
// fully reinitialized on reuse — which is what makes a campaign's
// reset-per-seed loop allocation-light. The caller must reset the
// kernel (and each system) first; the tester's pending events must be
// gone before its state is recycled.
func (t *Tester) Reset(seed uint64) {
	t.cfg.Seed = seed
	*t.rnd = *rng.New(seed, testerStream)
	t.log.Reset()
	t.space.rebuild(t.rnd.Split(), t.cfg.NumSyncVars, t.cfg.NumDataVars, t.cfg.AddressRangeBytes, t.space.lineSize)
	for _, thr := range t.threads {
		thr.ep = nil
		thr.episodesDone = 0
		thr.curOp = genOp{}
	}
	for _, wf := range t.wfs {
		wf.outstanding = 0
		wf.finished = false
	}
	t.failures = nil
	t.lastWorkTick = 0
	t.genSeq = 0
	if t.cfg.RecordTrace {
		t.trace = &checker.Trace{AtomicDelta: t.cfg.AtomicDelta}
		t.epMeta = t.epMeta[:0]
	}
	if t.cfg.StreamCheck {
		// Reuse the pipeline (its ring and the stream's fold tables)
		// across runs; rebuild only when the inline knob changed.
		if t.stream != nil && t.stream.ForcedInline() == t.cfg.StreamInline {
			t.stream.Reset(t.cfg.AtomicDelta)
		} else {
			if t.stream != nil {
				t.stream.Close()
			}
			t.stream = checker.NewPipeline(t.cfg.AtomicDelta, t.cfg.StreamInline)
		}
	}
	t.nextReqID = 0
	t.nextEpisodeID = 0
	t.storeValue = 0
	t.finishedWFs = 0
	t.done = false
	t.opsIssued, t.opsCompleted, t.episodesRetired = 0, 0, 0
	t.sampler = SamplerStats{}
}

// ResetWithConfig is Reset for a run whose tester configuration also
// changes (a campaign dealing each batch a different config corner).
// The wavefront/thread arrays are rebuilt only when the shape
// (NumWavefronts/ThreadsPerWF) actually changed, and the log only when
// its capacity did, so corner churn keeps the reset path's
// allocation-light behavior for same-shape corners. The same contract
// as Reset applies: kernel and systems must already be reset, and the
// subsequent Run is bit-identical to a freshly built Tester with this
// config and seed. cfg.Seed is overridden by seed.
func (t *Tester) ResetWithConfig(seed uint64, cfg Config) {
	cfg = cfg.WithDefaults()
	old := t.cfg
	t.cfg = cfg
	if cfg.NumWavefronts != old.NumWavefronts || cfg.ThreadsPerWF != old.ThreadsPerWF {
		t.buildWavefronts()
	}
	if cfg.LogCapacity != old.LogCapacity {
		t.log = NewEventLog(cfg.LogCapacity)
	}
	// Reset only rebuilds the trace/stream checkers when the new config
	// enables them; clear stale ones here so a corner that disables
	// checking doesn't report the previous corner's trace.
	if !cfg.RecordTrace {
		t.trace = nil
		t.epMeta = nil
	}
	if !cfg.StreamCheck {
		if t.stream != nil {
			t.stream.Close()
		}
		t.stream = nil
	}
	t.Reset(seed)
}

// FalseSharingLines reports how many cache lines mix sync and data
// variables under the run's random mapping.
func (t *Tester) FalseSharingLines() int { return t.space.falseShared }

// Log exposes the rolling transaction log.
func (t *Tester) Log() *EventLog { return t.log }

// Failures returns the bugs detected so far.
func (t *Tester) Failures() []*Failure { return t.failures }

// Trace returns the recorded execution (nil unless Config.RecordTrace
// was set), with episode metadata finalized.
func (t *Tester) Trace() *checker.Trace {
	if t.trace == nil {
		return nil
	}
	t.report() // finalizes trace.Episodes
	return t.trace
}

// Start schedules the first lockstep round of every wavefront and the
// forward-progress heartbeat.
func (t *Tester) Start() {
	for _, wf := range t.wfs {
		t.k.ScheduleTagged(0, wf.issueTag, wf.issueFn)
	}
	t.k.Schedule(t.cfg.CheckPeriod, t.heartbeatFn)
}

// Run executes the whole test: start, simulate to completion, final
// audit. It returns the run's report.
func (t *Tester) Run() *Report {
	start := time.Now()
	t.Start()
	t.k.RunUntilIdle()
	t.Finish()
	r := t.report()
	r.WallTime = time.Since(start)
	return r
}

// issueRound issues the next action of every unfinished thread in wf.
func (t *Tester) issueRound(wf *wavefront) {
	if t.k.Stopped() || wf.finished {
		return
	}
	issued := 0
	for _, thr := range wf.threads {
		if thr.episodesDone >= t.cfg.EpisodesPerThread {
			continue
		}
		if thr.ep == nil {
			thr.ep = t.newEpisode()
		}
		op := thr.ep.ops[thr.ep.next]
		thr.ep.next++
		thr.curOp = op
		t.issueOp(wf, thr, op)
		issued++
	}
	if issued == 0 {
		wf.finished = true
		t.finishedWFs++
		if t.finishedWFs == len(t.wfs) {
			t.done = true
		}
	}
}

// reqSlabSize is the request-arena chunk length. Chunks stay reachable
// while any of their requests is in flight, so larger chunks trade a
// little retention for fewer allocations.
const reqSlabSize = 256

func (t *Tester) issueOp(wf *wavefront, thr *thread, op genOp) {
	t.nextReqID++
	if len(t.reqSlab) == 0 {
		t.reqSlab = make([]mem.Request, reqSlabSize)
	}
	req := &t.reqSlab[0]
	t.reqSlab = t.reqSlab[1:]
	*req = mem.Request{
		ID:        t.nextReqID,
		Addr:      op.v.addr,
		ThreadID:  thr.id,
		WFID:      thr.wf,
		EpisodeID: thr.ep.id,
	}
	switch op.kind {
	case opAcquire:
		req.Op = mem.OpAtomic
		req.Operand = t.cfg.AtomicDelta
		req.Acquire = true
	case opRelease:
		req.Op = mem.OpAtomic
		req.Operand = t.cfg.AtomicDelta
		req.Release = true
	case opExtra:
		req.Op = mem.OpAtomic
		req.Operand = t.cfg.AtomicDelta
	case opLoad:
		req.Op = mem.OpLoad
	case opStore:
		req.Op = mem.OpStore
		req.Data = op.storeVal
		// The thread's own later loads must observe this value from
		// issue onward (program order).
		op.v.pend, op.v.pendSet = op.storeVal, true
	}
	wf.outstanding++
	t.opsIssued++
	if t.k.Tracing() {
		t.k.Trace(traceComponent, issueLabels[op.kind], uint64(req.Addr))
	}
	t.log.Append(LogEntry{
		Tick: uint64(t.k.Now()), Kind: LogIssue, Op: req.Op, Addr: req.Addr,
		ThreadID: int32(thr.id), WFID: int32(thr.wf), EpisodeID: thr.ep.id,
		Value: req.Data, Acquire: req.Acquire, Release: req.Release,
	})
	t.seqs[wf.cu].Issue(req)
}

// freeEpisode pops a recycled episode, its contents stale, or builds
// an empty one.
func (t *Tester) freeEpisode() *episode {
	if n := len(t.epFree); n > 0 {
		ep := t.epFree[n-1]
		t.epFree = t.epFree[:n-1]
		return ep
	}
	return &episode{}
}

// newEpisode generates a fresh episode obeying the §III.A race-freedom
// rules against every live episode.
func (t *Tester) newEpisode() *episode {
	t.nextEpisodeID++
	ep := t.freeEpisode()
	ep.claims.Clear()
	*ep = episode{
		claims:     ep.claims,
		ops:        ep.ops[:0],
		claimOrder: ep.claimOrder[:0],
	}
	ep.id = t.nextEpisodeID
	ep.sync = &t.space.syncVars[t.rnd.Intn(len(t.space.syncVars))]
	t.genSeq++
	ep.createSeq = t.genSeq
	if t.trace != nil {
		t.epMeta = append(t.epMeta, checker.EpisodeMeta{ID: ep.id, CreateSeq: ep.createSeq})
	}
	if t.stream != nil {
		t.stream.BeginEpisode(ep.id, ep.createSeq)
	}
	n := t.cfg.ActionsPerEpisode
	if cap(ep.ops) < n {
		ep.ops = make([]genOp, 0, n)
	}
	ep.ops = append(ep.ops, genOp{kind: opAcquire, v: ep.sync})
	for i := 0; i < n-2; i++ {
		ep.ops = append(ep.ops, t.genDataOp(ep))
	}
	ep.ops = append(ep.ops, genOp{kind: opRelease, v: ep.sync})
	return ep
}

func (t *Tester) genDataOp(ep *episode) genOp {
	wantStore := t.rnd.Bool(t.cfg.StoreFraction)
	if v := t.pickData(ep, wantStore); v != nil {
		return t.claimOp(ep, v, wantStore)
	}
	// Contention fallbacks: the opposite kind by sampling, then a
	// deterministic scan of the whole variable space, and finally — if
	// literally every data variable is claimed by a live foreign
	// episode — an always-legal plain atomic on the episode's own sync
	// variable. The episode keeps its configured length either way.
	if v := t.pickData(ep, !wantStore); v != nil {
		return t.claimOp(ep, v, !wantStore)
	}
	if t.space.admitsAny(ep, false) {
		for i, w := range t.space.words {
			if admits(w, ep.id, false) {
				return t.claimOp(ep, &t.space.dataVars[i], false)
			}
		}
	}
	return genOp{kind: opExtra, v: ep.sync}
}

// sampleTries bounds pickData's rejection sampling.
const sampleTries = 64

// pickData rejection-samples a data variable that episode ep may
// access with the requested kind. When no variable admits the access
// every try would be drawn and rejected, so the tries are skipped: the
// stream advances by what they would have drawn (one Intn each, two
// steps) and every later draw of the run is the one it always was.
// A draw tests the drawn variable's claim word, not the variable.
func (t *Tester) pickData(ep *episode, store bool) *variable {
	t.sampler.Calls++
	if !t.space.admitsAny(ep, store) {
		t.sampler.Empty++
		t.rnd.Skip(2 * sampleTries)
		return nil
	}
	words := t.space.words
	for try := 0; try < sampleTries; try++ {
		if i := t.rnd.Intn(len(words)); admits(words[i], ep.id, store) {
			t.sampler.Draws += uint64(try + 1)
			return &t.space.dataVars[i]
		}
	}
	t.sampler.Draws += sampleTries
	t.sampler.Empty++
	return nil
}

func (t *Tester) claimOp(ep *episode, v *variable, store bool) genOp {
	want, held := claimRead, ep.claims.Slot(int(v.id))
	if store {
		want = claimWrite
	}
	if *held == 0 {
		ep.claimOrder = append(ep.claimOrder, v)
	}
	if *held&want == 0 {
		*held |= want
		t.space.claim(v, ep.id, want)
	}
	if store {
		t.storeValue++
		return genOp{kind: opStore, v: v, storeVal: t.storeValue}
	}
	return genOp{kind: opLoad, v: v}
}

// HandleResponse implements mem.Requestor: every response is checked
// against the reference state before the lockstep round advances.
func (t *Tester) HandleResponse(resp *mem.Response) {
	req := resp.Req
	thr := t.threads[req.ThreadID]
	wf := t.wfs[thr.wf]
	ep := thr.ep
	op := thr.curOp
	t.opsCompleted++
	t.lastWorkTick = resp.Tick
	if t.k.Tracing() {
		t.k.Trace(traceComponent, respLabels[op.kind], uint64(req.Addr))
	}

	t.log.Append(LogEntry{
		Tick: resp.Tick, Kind: LogResp, Op: req.Op, Addr: req.Addr,
		ThreadID: int32(thr.id), WFID: int32(thr.wf), EpisodeID: req.EpisodeID,
		Value: resp.Data, Acquire: req.Acquire, Release: req.Release,
	})

	rec := AccessRecord{
		ThreadID: int32(thr.id), WFID: int32(thr.wf), EpisodeID: req.EpisodeID,
		Addr: req.Addr, Cycle: resp.Tick, Value: resp.Data,
	}

	if t.trace != nil || t.stream != nil {
		top := t.buildTraceOp(thr, ep, op, req, resp)
		if t.trace != nil {
			t.trace.Ops = append(t.trace.Ops, top)
		}
		if t.stream != nil {
			t.stream.Observe(top)
		}
	}

	switch op.kind {
	case opLoad:
		t.checkLoad(ep, op.v, rec, resp)
	case opStore:
		wrec := rec
		wrec.Value = req.Data
		t.space.setLastWriter(op.v, wrec)
	case opAcquire, opRelease, opExtra:
		t.checkAtomic(op.v, rec)
		if op.kind == opRelease {
			t.retire(thr, ep)
		}
	}

	wf.outstanding--
	if wf.outstanding == 0 && !t.k.Stopped() {
		t.k.ScheduleTagged(1, wf.issueTag, wf.issueFn)
	}
}

// checkLoad enforces the DRF value rule: a load sees the episode's own
// latest store to the variable, or the globally retired value.
func (t *Tester) checkLoad(ep *episode, v *variable, rec AccessRecord, resp *mem.Response) {
	expected, own := v.value, v.writer == ep.id && v.pendSet
	if own {
		expected = v.pend
	}
	if resp.Data == expected {
		return
	}
	// Copy rec on the failure path only: taking &rec itself would make
	// the parameter escape and heap-allocate on every clean load.
	r := rec
	f := &Failure{
		Kind: FailValueMismatch, Tick: resp.Tick, Addr: v.addr,
		Expected: expected, Got: resp.Data,
		Message: fmt.Sprintf("load of %#x returned %d, expected %d (own-write=%v)",
			uint64(v.addr), resp.Data, expected, own),
		LastReader: &r,
		Window:     t.log.ForAddr(v.addr, 16),
	}
	if w, ok := t.space.lastWriter(v); ok {
		f.LastWriter = &w
	}
	t.fail(f)
}

// checkAtomic enforces atomicity: old values of the fetch-adds on a
// sync variable must be unique multiples of the delta, bounded by the
// number of issued atomics.
func (t *Tester) checkAtomic(v *variable, rec AccessRecord) {
	old := rec.Value
	// rec copies live on the failure paths only: a defer closing over
	// rec (or &rec in a Failure) would heap-allocate on every clean
	// atomic.
	if old%t.cfg.AtomicDelta != 0 {
		r := rec
		t.fail(&Failure{
			Kind: FailBadAtomicValue, Tick: rec.Cycle, Addr: v.addr,
			Got: old,
			Message: fmt.Sprintf("atomic on %#x returned %d, not a multiple of delta %d",
				uint64(v.addr), old, t.cfg.AtomicDelta),
			LastReader: &r,
			Window:     t.log.ForAddr(v.addr, 16),
		})
	} else if prev, dup := v.seenOld.Get(old); dup {
		p, r := prev, rec
		t.fail(&Failure{
			Kind: FailDuplicateAtomic, Tick: rec.Cycle, Addr: v.addr,
			Got: old,
			Message: fmt.Sprintf("two atomics on %#x returned the same old value %d: atomicity violated",
				uint64(v.addr), old),
			LastReader: &p,
			LastWriter: &r,
			Window:     t.log.ForAddr(v.addr, 16),
		})
	}
	v.seenOld.Put(old, rec)
	v.completed++
}

// buildTraceOp converts a completed operation into the axiomatic
// checker's form, shared by the recorded trace and the online stream.
func (t *Tester) buildTraceOp(thr *thread, ep *episode, op genOp, req *mem.Request, resp *mem.Response) checker.Op {
	ep.traceSeq++
	top := checker.Op{
		Var:     int(op.v.id),
		Sync:    op.v.sync,
		Thread:  thr.id,
		Episode: ep.id,
		Seq:     ep.traceSeq,
	}
	switch op.kind {
	case opLoad:
		top.Kind = checker.OpLoad
		top.Value = resp.Data
	case opStore:
		top.Kind = checker.OpStore
		top.Value = req.Data
	default:
		top.Kind = checker.OpAtomic
		top.Value = resp.Data
	}
	return top
}

// retire completes an episode: its writes become the globally visible
// reference values and its claims are released, legalising new accesses
// by future episodes (§III.C: "a newly written value becomes globally
// visible to other threads after the episode retires").
func (t *Tester) retire(thr *thread, ep *episode) {
	t.genSeq++
	if t.trace != nil {
		m := &t.epMeta[ep.id-1]
		m.Thread, m.RetireSeq = thr.id, t.genSeq
	}
	if t.stream != nil {
		t.stream.RetireEpisode(ep.id, t.genSeq)
	}
	for _, v := range ep.claimOrder {
		if v.writer == ep.id && v.pendSet {
			v.value, v.pendSet = v.pend, false
		}
		t.space.release(v, ep.id, v.heldBy(ep.id))
	}
	t.episodesRetired++
	// Nothing references a retired episode (its last op has completed
	// and thr.ep is cleared below), so its storage goes back to the
	// free list for the next generation.
	t.epFree = append(t.epFree, ep)
	thr.ep = nil
	thr.episodesDone++
}

// heartbeat is the periodic forward-progress check (§III.C): any
// request older than the threshold is reported as a deadlock.
func (t *Tester) heartbeat() {
	if t.done || t.k.Stopped() {
		return
	}
	now := uint64(t.k.Now())
	// Report the oldest over-threshold request (ties broken by ID): the
	// order outstanding sets are visited in depends on their tables'
	// history, which a reset context and a fresh one do not share.
	var stuck *mem.Request
	t.forEachOutstanding(func(r *mem.Request) {
		if now-r.IssueTick <= t.cfg.DeadlockThreshold {
			return
		}
		if stuck == nil || r.IssueTick < stuck.IssueTick ||
			(r.IssueTick == stuck.IssueTick && r.ID < stuck.ID) {
			stuck = r
		}
	})
	if stuck == nil {
		t.k.Schedule(t.cfg.CheckPeriod, t.heartbeatFn)
		return
	}
	if t.k.Tracing() {
		t.k.Trace(traceComponent, failLabels[FailDeadlock], uint64(stuck.Addr))
	}
	t.failures = append(t.failures, &Failure{
		Kind: FailDeadlock, Tick: now, Addr: stuck.Addr,
		Message: fmt.Sprintf("no forward progress: %s outstanding for %d ticks (threshold %d)",
			stuck, now-stuck.IssueTick, t.cfg.DeadlockThreshold),
		Window: t.log.ForAddr(stuck.Addr, 16),
	})
	t.k.Stop()
}

func (t *Tester) forEachOutstanding(visit func(*mem.Request)) {
	for _, sys := range t.systems {
		sys.ForEachOutstanding(visit)
	}
}

func (t *Tester) outstandingCount() int {
	n := 0
	for _, sys := range t.systems {
		n += sys.OutstandingRequests()
	}
	return n
}

func (t *Tester) fail(f *Failure) {
	if t.k.Tracing() {
		t.k.Trace(traceComponent, failLabels[f.Kind], uint64(f.Addr))
	}
	t.failures = append(t.failures, f)
	if !t.cfg.KeepGoing {
		t.k.Stop()
	}
}

// RNGState returns the tester's main PCG stream state, captured for
// replay artifacts (matching states confirm a replay consumed the
// identical randomness).
func (t *Tester) RNGState() (state, inc uint64) { return t.rnd.State() }

// Finish runs the end-of-run audits. With a correct protocol, the
// reference memory, the simulated DRAM, and the L2's cached lines must
// all agree, and nothing may remain outstanding.
func (t *Tester) Finish() {
	for _, sys := range t.systems {
		for _, f := range sys.Faults() {
			t.failures = append(t.failures, &Failure{
				Kind: FailProtocolFault, Tick: uint64(t.k.Now()), Message: f.Error(),
			})
		}
	}
	if len(t.failures) > 0 {
		return
	}

	if n := t.outstandingCount(); n > 0 && !t.done {
		// Report the first issued (lowest ID), whatever order the
		// outstanding sets are visited in.
		var first *mem.Request
		t.forEachOutstanding(func(r *mem.Request) {
			if first == nil || r.ID < first.ID {
				first = r
			}
		})
		t.failures = append(t.failures, &Failure{
			Kind: FailDeadlock, Tick: uint64(t.k.Now()), Addr: first.Addr,
			Message: fmt.Sprintf("simulation idle with %d requests outstanding; first: %s (issued at %d)",
				n, first, first.IssueTick),
			Window: t.log.ForAddr(first.Addr, 16),
		})
		return
	}

	if len(t.systems) != 1 || t.systems[0].Mem == nil {
		return // directory-backed runs audit via AuditStore(store)
	}
	t.AuditStore(t.systems[0].Mem.Store())
}

// AuditStore compares the reference state against the backing store
// and the L2's cached lines. The L2 audit runs first: for write-back
// variants it flushes dirty lines into the store, making memory
// authoritative for the variable checks that follow.
func (t *Tester) AuditStore(store *mem.Store) {
	for _, sys := range t.systems {
		for _, m := range sys.AuditL2(store) {
			t.failures = append(t.failures, &Failure{
				Kind:    FailFinalAudit,
				Message: "L2 audit: " + m,
			})
		}
	}
	for i := range t.space.dataVars {
		v := &t.space.dataVars[i]
		if got := store.ReadWord(v.addr); got != v.value {
			t.failures = append(t.failures, &Failure{
				Kind: FailFinalAudit, Addr: v.addr, Expected: v.value, Got: got,
				Message: fmt.Sprintf("final memory audit: %#x holds %d, reference says %d",
					uint64(v.addr), got, v.value),
				Window: t.log.ForAddr(v.addr, 16),
			})
		}
	}
	for i := range t.space.syncVars {
		v := &t.space.syncVars[i]
		want := uint32(v.completed) * t.cfg.AtomicDelta
		if got := store.ReadWord(v.addr); got != want {
			t.failures = append(t.failures, &Failure{
				Kind: FailFinalAudit, Addr: v.addr, Expected: want, Got: got,
				Message: fmt.Sprintf("final atomic audit: sync %#x holds %d after %d atomics (want %d)",
					uint64(v.addr), got, v.completed, want),
				Window: t.log.ForAddr(v.addr, 16),
			})
		}
	}
}

// Report summarizes a finished run.
type Report struct {
	Failures []*Failure
	// Trace is the recorded execution when Config.RecordTrace is set
	// (nil otherwise); feed it to checker.Verify for an independent
	// axiomatic re-verification.
	Trace *checker.Trace
	// StreamViolations holds the online axiomatic checker's findings
	// when Config.StreamCheck is set (nil otherwise, and nil for a
	// clean run).
	StreamViolations []checker.Violation
	SimTicks         uint64
	EventsExecuted   uint64
	OpsIssued        uint64
	OpsCompleted     uint64
	EpisodesRetired  uint64
	Transactions     uint64
	FalseSharedLines int
	// Sampler counts the data-variable generator's rejection sampling.
	Sampler  SamplerStats
	WallTime time.Duration
}

// SamplerStats counts the generator's rejection-sampling traffic. The
// counts are exact and deterministic for a fixed config and seed.
type SamplerStats struct {
	// Calls is the number of sampling calls: one per wanted kind, plus
	// one per opposite-kind fallback.
	Calls uint64
	// Draws is the number of variables drawn and tested.
	Draws uint64
	// Empty is the number of calls that found no admissible variable:
	// either none existed (the tries were skipped, drawing nothing) or
	// every one of the 64 draws was rejected.
	Empty uint64
}

// Passed reports whether the run found no bugs.
func (r *Report) Passed() bool { return len(r.Failures) == 0 }

func (t *Tester) report() *Report {
	if t.trace != nil {
		t.trace.Episodes = append(t.trace.Episodes[:0], t.epMeta...)
	}
	var streamViols []checker.Violation
	if t.stream != nil {
		streamViols = t.stream.Finish()
	}
	return &Report{
		Failures:         t.failures,
		Trace:            t.trace,
		StreamViolations: streamViols,
		SimTicks:         t.lastWorkTick,
		EventsExecuted:   t.k.Executed(),
		OpsIssued:        t.opsIssued,
		OpsCompleted:     t.opsCompleted,
		EpisodesRetired:  t.episodesRetired,
		Transactions:     t.log.Total(),
		FalseSharedLines: t.space.falseShared,
		Sampler:          t.sampler,
	}
}
