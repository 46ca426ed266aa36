package sim

import (
	"cmp"
	"slices"
	"testing"
)

// The model-based kernel test. A byte-coded program drives a Kernel
// and the linear-scan refKernel (kernel_test.go) in lock-step: every
// operation is applied to both, every poller tick, Choose call and
// fired event is checked against the model as it happens, and the
// counters are compared after every step. The delays straddle the
// wheel's horizon and collide in its buckets, and cuts are taken and
// restored at arbitrary points, in any order, into a kernel whose slab
// has since grown, shrunk or been reset.

var (
	modelDelays  = [...]Tick{0, 1, 2, 126, 127, 128, 129, 255, 256, 257, 5000}
	modelRuns    = [...]Tick{0, 1, 2, 5, 126, 127, 128, 129, 300, 6000}
	modelPeriods = [...]Tick{1, 3, 64, 128, 500}
)

// A program is a sequence of (op, arg) byte pairs.
const (
	opSchedule      = iota // arg: delay index, unit<<4, line<<6
	opScheduleAt           // arg: delay index: through ScheduleAt(now + d)
	opScheduleStop         // arg as opSchedule: the event calls Stop when it fires
	opBurst                // arg: count-1 in the low 6 bits; delays cycle through the pool
	opRun                  // arg: modelRuns index: Run(now + d)
	opRunPast              // Run(now - 1): a horizon already behind
	opRunIdle              //
	opSnapshot             // arg: cut slot; a filled slot is recycled as dead
	opRestore              // arg: cut slot
	opReset                //
	opAddPoller            // arg: modelPeriods index
	opStop                 //
	opClearStop            //
	opArmCut               // arg: cut slot: the next multi-candidate Choose snapshots into it
	opArmStop              // the next Choose calls Stop instead of picking
	opToggleChooser        // modeRandom: detach the chooser, or attach it again
	numModelOps
)

// modelOp decodes an op byte. The values past the list weight random
// bytes towards building and running queues, and towards clearing a
// Stop over raising one.
func modelOp(b byte) byte {
	if b %= 32; b >= numModelOps {
		return [32 - numModelOps]byte{opRun, opRun, opRun, opRunIdle, opSnapshot, opRestore, opClearStop, opClearStop}[b-numModelOps]
	}
	return b
}

const (
	modeDefault = iota // no chooser
	modeFIFO           // FIFOChooser: must be the default loop exactly
	modeRandom         // seeded picks, checked against the per-unit rule; detachable
	numModes

	modelCuts     = 4
	modelFireCap  = 3000 // fired events past which nothing spawns children
	modelQueueCap = 300  // pending events past which nothing spawns children
)

type refPoller struct{ period, next Tick }

type pollFire struct {
	id int
	at Tick
}

// spawn is one schedule request, made at top level or by a firing event.
type spawn struct {
	delay     Tick
	tag       uint64
	useAt     bool // through ScheduleAt(now+delay)
	stop      bool // the event calls Stop when it fires
	addPoller bool // the event registers a poller when it fires
}

// clone returns a deep copy of the model's state.
func (r *refKernel) clone() refKernel {
	c := *r
	c.pending = slices.Clone(r.pending)
	c.pollers = slices.Clone(r.pollers)
	return c
}

// earliest returns the lowest pending tick.
func (r *refKernel) earliest() (min Tick, ok bool) {
	for i, e := range r.pending {
		if i == 0 || e.when < min {
			min = e.when
		}
	}
	return min, len(r.pending) > 0
}

// candidates lists what a Chooser must be offered at tick now: the
// events due now in seq order, first of each unit only.
func (r *refKernel) candidates(now Tick) []Enabled {
	var due []refEvent
	for _, e := range r.pending {
		if e.when == now {
			due = append(due, e)
		}
	}
	slices.SortFunc(due, func(a, b refEvent) int { return cmp.Compare(a.seq, b.seq) })
	var cands []Enabled
	var seen []uint64
	for _, e := range due {
		if u := TagUnit(e.tag); !slices.Contains(seen, u) {
			seen = append(seen, u)
			cands = append(cands, Enabled{Seq: e.seq, Tag: e.tag})
		}
	}
	return cands
}

// modelRun is one program's execution in one mode.
type modelRun struct {
	t     *testing.T
	k     *Kernel
	ref   refKernel
	mode  int
	seed  uint64
	units [3]uint32
	step  int

	cuts [modelCuts]struct {
		k   *KernelSnapshot
		ref refKernel
		ok  bool
	}
	until    Tick       // horizon of the Run in flight
	gotPolls []pollFire // poller ticks since the last check
	choosing bool       // modeRandom's chooser is attached
	chosen   uint64     // seq the random chooser picked for the next fire
	armCut   int        // cut slot the next multi-candidate Choose fills, or -1
	armStop  bool
	fired    int    // never restored: bounds the whole execution
	picks    uint64 // never restored: a revisited cut takes other branches
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (m *modelRun) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("mode %d step %d tick %d: "+format, append([]any{m.mode, m.step, m.k.Now()}, args...)...)
}

func (m *modelRun) tag(unit, line uint64) uint64 {
	switch {
	case unit == 0:
		return 0
	case line == 0:
		return MakeUnitTag(CompLink, m.units[unit-1])
	}
	return MakeLineTag(CompLink, m.units[unit-1], line*64)
}

// schedule applies one request to the kernel and the model.
func (m *modelRun) schedule(s spawn) {
	r := &m.ref
	id := r.nextID
	r.nextID++
	if s.useAt {
		s.tag = 0
		m.k.ScheduleAt(m.k.Now()+s.delay, func() { m.fire(id, s) })
	} else {
		m.k.ScheduleTagged(s.delay, s.tag, func() { m.fire(id, s) })
	}
	r.seq++
	r.pending = append(r.pending, refEvent{when: r.now + s.delay, seq: r.seq, id: id, tag: s.tag})
	if s.delay >= wheelSize {
		r.beyond++
	}
}

func (m *modelRun) addPoller(period Tick) {
	if len(m.ref.pollers) == 4 {
		return
	}
	id := len(m.ref.pollers)
	m.k.AddPoller(period, func() { m.gotPolls = append(m.gotPolls, pollFire{id, m.k.Now()}) })
	m.ref.pollers = append(m.ref.pollers, refPoller{period: period, next: m.ref.now})
}

// begin checks that the kernel moved to the right tick for its next
// event and fired exactly the pollers due there.
func (m *modelRun) begin() {
	r, now := &m.ref, m.k.Now()
	if r.stopped {
		m.fatalf("the loop went on after Stop")
	}
	due, ok := r.earliest()
	if !ok || now != due || now < r.now || now > m.until {
		m.fatalf("loop at tick %d, model's next event is due at %d (ok=%v, model now %d, until %d)", now, due, ok, r.now, m.until)
	}
	r.now = now
	var want []pollFire
	for i := range r.pollers {
		if p := &r.pollers[i]; now >= p.next {
			p.next = now + p.period
			want = append(want, pollFire{i, now})
		}
	}
	if !slices.Equal(m.gotPolls, want) {
		m.fatalf("pollers fired %v, model %v", m.gotPolls, want)
	}
	m.gotPolls = m.gotPolls[:0]
}

// Choose implements Chooser for modeRandom.
func (m *modelRun) Choose(now Tick, cands []Enabled) int {
	if now != m.k.Now() {
		m.fatalf("Choose at %d", now)
	}
	m.begin()
	if want := m.ref.candidates(now); !slices.Equal(cands, want) {
		m.fatalf("candidates %v, model %v", cands, want)
	}
	if m.armStop {
		m.armStop = false
		m.k.Stop()
		m.ref.stopped = true
		return 0
	}
	if m.armCut >= 0 && len(cands) > 1 {
		m.cut(m.armCut)
		m.armCut = -1
	}
	m.picks++
	i := int(mix64(m.seed^m.picks) % uint64(len(cands)))
	m.chosen = cands[i].Seq
	return i
}

// fire is every event's closure: the model checks it is this event's
// turn, then the event does what its spawn asked and schedules children.
func (m *modelRun) fire(id int, s spawn) {
	r := &m.ref
	if !m.choosing {
		m.begin()
	}
	at := -1
	for i := range r.pending {
		e := &r.pending[i]
		if e.id != id {
			continue
		}
		at = i
		if e.when != r.now || (m.choosing && e.seq != m.chosen) {
			m.fatalf("event %d (tick %d seq %d) fired at model tick %d, chosen seq %d", id, e.when, e.seq, r.now, m.chosen)
		}
	}
	if at < 0 {
		m.fatalf("event %d fired but is not pending in the model", id)
	}
	if !m.choosing {
		for _, e := range r.pending {
			if e.before(r.pending[at]) {
				m.fatalf("event %d fired ahead of event %d (tick %d seq %d)", id, e.id, e.when, e.seq)
			}
		}
	}
	r.pending = slices.Delete(r.pending, at, at+1)
	r.executed++
	m.chosen = 0
	m.fired++
	m.check()

	if s.stop {
		m.k.Stop()
		r.stopped = true
	}
	if s.addPoller {
		m.addPoller(modelPeriods[id%len(modelPeriods)])
	}
	if m.fired > modelFireCap || len(r.pending) > modelQueueCap {
		return
	}
	h := mix64(m.seed + uint64(id)*0x9e3779b97f4a7c15)
	for n := [8]int{0, 0, 0, 1, 1, 1, 2, 2}[h&7]; n > 0; n-- {
		h = mix64(h)
		m.schedule(spawn{
			delay:     modelDelays[h%uint64(len(modelDelays))],
			tag:       m.tag(h>>8&3, h>>10&3),
			useAt:     h>>16&7 == 0,
			stop:      h>>20&63 == 0,
			addPoller: h>>28&127 == 0,
		})
	}
}

// check compares every counter the kernel exports with the model's.
func (m *modelRun) check() {
	k, r := m.k, &m.ref
	if k.Now() != r.now || k.Pending() != len(r.pending) || k.Executed() != r.executed ||
		k.Stopped() != r.stopped || k.BeyondHorizon() != r.beyond {
		m.fatalf("kernel now=%d pending=%d executed=%d stopped=%v beyond=%d, model now=%d pending=%d executed=%d stopped=%v beyond=%d",
			k.Now(), k.Pending(), k.Executed(), k.Stopped(), k.BeyondHorizon(),
			r.now, len(r.pending), r.executed, r.stopped, r.beyond)
	}
}

func (m *modelRun) run(until Tick) {
	m.until = until
	if got := m.k.Run(until); got != m.k.Now() {
		m.fatalf("Run returned %d", got)
	}
	if len(m.gotPolls) != 0 {
		m.fatalf("pollers fired %v with no event after them", m.gotPolls)
	}
	if due, ok := m.ref.earliest(); ok && !m.ref.stopped && due <= until {
		m.fatalf("Run(%d) returned with an event due at %d", until, due)
	}
}

// cut snapshots into a slot. A slot's old snapshot is dead and is
// scribbled over first: SnapshotInto may trust nothing it finds there.
func (m *modelRun) cut(slot int) {
	c := &m.cuts[slot]
	if c.k != nil {
		for i := range c.k.wheel {
			c.k.wheel[i] = bucket{0x5a, 0x5a}
		}
		for i := range c.k.slab {
			c.k.slab[i] = event{seq: 0xa5, tag: 0xa5, next: 0x5a}
		}
		c.k.occ, c.k.free, c.k.pending, c.k.now = [2]uint64{0xa5, 0xa5}, 0x5a, 0x5a, 0xa5
	}
	c.k, c.ref, c.ok = m.k.SnapshotInto(c.k), m.ref.clone(), true
}

func (m *modelRun) exec(op, arg byte) {
	k, r := m.k, &m.ref
	pooled := func(stop, useAt bool) spawn {
		return spawn{delay: modelDelays[int(arg&15)%len(modelDelays)], tag: m.tag(uint64(arg>>4&3), uint64(arg>>6)), stop: stop, useAt: useAt}
	}
	switch op {
	default:
		m.schedule(pooled(false, false))
	case opScheduleAt:
		m.schedule(pooled(false, true))
	case opScheduleStop:
		m.schedule(pooled(true, false))
	case opBurst:
		for i := 0; i <= int(arg&63); i++ {
			m.schedule(spawn{delay: modelDelays[(i+int(arg>>6))%len(modelDelays)], tag: m.tag(uint64(i&3), 0)})
		}
	case opRun:
		m.run(k.Now() + modelRuns[int(arg)%len(modelRuns)])
	case opRunPast:
		if k.Now() > 0 {
			m.run(k.Now() - 1)
		}
	case opRunIdle:
		m.run(MaxTick)
	case opSnapshot:
		m.cut(int(arg) % modelCuts)
	case opRestore:
		if c := &m.cuts[int(arg)%modelCuts]; c.ok {
			k.Restore(c.k)
			m.ref = c.ref.clone()
			m.chosen, m.gotPolls = 0, m.gotPolls[:0]
		}
	case opReset:
		k.Reset()
		m.ref = refKernel{nextID: r.nextID}
	case opAddPoller:
		m.addPoller(modelPeriods[int(arg)%len(modelPeriods)])
	case opStop:
		k.Stop()
		r.stopped = true
	case opClearStop:
		k.ClearStop()
		r.stopped = false
	case opArmCut:
		m.armCut = int(arg) % modelCuts
	case opArmStop:
		m.armStop = true
	case opToggleChooser:
		if m.mode == modeRandom {
			if m.choosing = !m.choosing; m.choosing {
				k.SetChooser(m)
			} else {
				k.SetChooser(nil)
			}
		}
	}
}

// runModelProgram executes prog in every mode, then drains the kernel.
func runModelProgram(t *testing.T, prog []byte) {
	for mode := 0; mode < numModes; mode++ {
		k := NewKernel()
		m := &modelRun{t: t, k: k, mode: mode, armCut: -1, units: [3]uint32{k.NewUnit(), k.NewUnit(), k.NewUnit()}}
		for _, b := range prog {
			m.seed = mix64(m.seed + uint64(b))
		}
		switch mode {
		case modeFIFO:
			k.SetChooser(FIFOChooser{})
		case modeRandom:
			m.exec(opToggleChooser, 0)
		}
		for ; m.step < len(prog)/2 && m.step < 400; m.step++ {
			m.exec(modelOp(prog[2*m.step]), prog[2*m.step+1])
			m.check()
		}
		// Stoppers may interrupt the drain; each is pending once.
		for m.armStop = false; k.Pending() > 0; m.step++ {
			m.exec(opClearStop, 0)
			m.exec(opRunIdle, 0)
			m.check()
		}
	}
}

// modelPrograms are the hand-written seeds of the model test and the
// fuzz corpus.
func modelPrograms() [][]byte {
	const (
		d0, d1, d2, d126, d127, d128, d129, d255, d256, d257, d5000 = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
		u1, u2, u3, line1, line2                                    = 1 << 4, 2 << 4, 3 << 4, 1 << 6, 2 << 6
		run1, run2, run127, run128, run300                          = 1, 2, 5, 6, 8
	)
	return [][]byte{
		// An overflow event and later near schedules for the same tick:
		// 129 from tick 0, then 128 from tick 1 and 127 from tick 2.
		{opSchedule, d129, opSchedule, d1, opSchedule, d2, opRun, run1, opSchedule, d128, opRun, run1,
			opSchedule, d127, opSchedule, d127 | u1, opRunIdle, 0},
		// Ticks t, t+128 and t+256 live at once in one bucket; partial
		// runs land exactly on and one short of the horizon.
		{opSchedule, d1, opSchedule, d129, opSchedule, d257, opSchedule, d128, opSchedule, d256, opSchedule, d0,
			opRun, run127, opRun, run1, opSchedule, d128, opScheduleAt, d0, opScheduleAt, d255, opRun, run128,
			opRunPast, 0, opSchedule, d5000, opSchedule, d126, opRunIdle, 0},
		// A burst grows the slab past a cut; reset shrinks it; the cut
		// comes back, runs, and is restored again out of order.
		{opSchedule, d2, opSchedule, d127 | u1, opSnapshot, 0, opBurst, 63, opBurst, 63 | 1<<6, opSnapshot, 1,
			opRun, run2, opReset, 0, opSchedule, d1, opRestore, 0, opRun, run300, opSnapshot, 2, opRestore, 1,
			opRun, run2, opRestore, 2, opRestore, 0, opBurst, 20, opRunIdle, 0},
		// A recycled (scribbled-over) snapshot of an idle kernel comes
		// back over a bucket the kernel has filled since.
		{opSnapshot, 0, opSnapshot, 0, opSchedule, d1, opSchedule, d129, opRestore, 0, opSchedule, d1, opRunIdle, 0},
		// Same-tick events on three units plus untagged: the random
		// chooser unlinks heads, middles and tails; delay-0 children
		// join behind them; cuts are taken inside Choose and revisited,
		// also with the chooser detached.
		{opSchedule, d1 | u1, opSchedule, d1 | u2, opSchedule, d1 | u3, opSchedule, d1, opSchedule, d1 | u1 | line1,
			opSchedule, d1 | u2 | line2, opSchedule, d0 | u3, opArmCut, 0, opRun, run1, opArmCut, 1, opRun, run2,
			opRestore, 0, opRun, run1, opRestore, 1, opRestore, 0, opRunIdle, 0, opRestore, 1, opRunIdle, 0,
			opRestore, 0, opToggleChooser, 0, opRun, run1, opToggleChooser, 0, opRestore, 1, opToggleChooser, 0, opRunIdle, 0},
		// Stop from an event, from outside, and from inside Choose;
		// pollers of every period registered at different ticks.
		{opAddPoller, 0, opSchedule, d2, opScheduleStop, d2, opSchedule, d2, opAddPoller, 1, opRunIdle, 0,
			opRun, run300, opClearStop, 0, opAddPoller, 3, opStop, 0, opRunIdle, 0, opClearStop, 0,
			opSchedule, d5000, opSchedule, d126, opArmStop, 0, opRun, run300, opAddPoller, 4, opClearStop, 0,
			opSnapshot, 3, opRunIdle, 0, opRestore, 3, opRunIdle, 0},
	}
}

func TestKernelMatchesModel(t *testing.T) {
	for _, p := range modelPrograms() {
		runModelProgram(t, p)
	}
	x := uint32(1)
	for n := 0; n < 200; n++ {
		p := make([]byte, 2*(20+n))
		for i := range p {
			x = x*1664525 + 1013904223
			p[i] = byte(x >> 24)
		}
		runModelProgram(t, p)
	}
}

func FuzzKernel(f *testing.F) {
	for _, p := range modelPrograms() {
		f.Add(p)
	}
	f.Fuzz(runModelProgram)
}
