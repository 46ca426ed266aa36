package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"drftest/internal/trace"
)

func TestRunsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []Tick
	for _, d := range []Tick{30, 10, 20, 10, 0} {
		d := d
		k.Schedule(d, func() { order = append(order, k.Now()) })
	}
	k.RunUntilIdle()
	if !sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] }) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("fired %d of 5 events", len(order))
	}
}

func TestSameTickFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	k.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-tick events reordered: %v", order)
		}
	}
}

func TestZeroDelayRunsLaterSameTick(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Schedule(1, func() {
		trace = append(trace, "a")
		k.Schedule(0, func() { trace = append(trace, "c") })
	})
	k.Schedule(1, func() { trace = append(trace, "b") })
	k.RunUntilIdle()
	if got := trace[0] + trace[1] + trace[2]; got != "abc" {
		t.Fatalf("zero-delay ordering wrong: %v", trace)
	}
	if k.Now() != 1 {
		t.Fatalf("time advanced to %d, want 1", k.Now())
	}
}

func TestRunHorizon(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(10, func() { fired++ })
	k.Schedule(20, func() { fired++ })
	k.Run(15)
	if fired != 1 {
		t.Fatalf("horizon 15 fired %d events", fired)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending %d, want 1", k.Pending())
	}
	k.RunUntilIdle()
	if fired != 2 {
		t.Fatal("remaining event lost")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(1, func() { fired++; k.Stop() })
	k.Schedule(2, func() { fired++ })
	k.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("Stop did not halt the run (fired=%d)", fired)
	}
	if !k.Stopped() {
		t.Fatal("Stopped() false after Stop")
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt into the past did not panic")
			}
		}()
		k.ScheduleAt(5, func() {})
	})
	k.RunUntilIdle()
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	NewKernel().Schedule(1, nil)
}

func TestExecutedCount(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 17; i++ {
		k.Schedule(Tick(i), func() {})
	}
	k.RunUntilIdle()
	if k.Executed() != 17 {
		t.Fatalf("Executed=%d, want 17", k.Executed())
	}
}

func TestPollerFiresPeriodically(t *testing.T) {
	k := NewKernel()
	polls := 0
	k.AddPoller(10, func() { polls++ })
	for i := Tick(0); i <= 100; i += 5 {
		k.Schedule(i, func() {})
	}
	k.RunUntilIdle()
	if polls < 9 || polls > 12 {
		t.Fatalf("poller fired %d times over 100 ticks at period 10", polls)
	}
}

// TestPollersKeepOwnPeriods: two pollers registered with different
// periods each fire at their own cadence (regression: firePollers used
// to run every poller at the minimum registered period).
func TestPollersKeepOwnPeriods(t *testing.T) {
	k := NewKernel()
	fast, slow := 0, 0
	k.AddPoller(10, func() { fast++ })
	k.AddPoller(30, func() { slow++ })
	for i := Tick(0); i <= 300; i += 5 {
		k.Schedule(i, func() {})
	}
	k.RunUntilIdle()
	// Events land on every multiple of 5 in [0, 300], so the pollers
	// fire exactly at multiples of their own periods.
	if fast != 31 {
		t.Fatalf("period-10 poller fired %d times over 300 ticks, want 31", fast)
	}
	if slow != 11 {
		t.Fatalf("period-30 poller fired %d times over 300 ticks, want 11", slow)
	}
}

// TestStopBeforeRunHonored: a Stop issued between Run calls must not
// be discarded (regression: Run reset the flag on entry).
func TestStopBeforeRunHonored(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(1, func() { fired++ })
	k.Stop()
	if got := k.Run(MaxTick); got != 0 {
		t.Fatalf("stopped Run advanced time to %d", got)
	}
	if fired != 0 || k.Pending() != 1 {
		t.Fatalf("stopped Run executed events (fired=%d pending=%d)", fired, k.Pending())
	}
	if !k.Stopped() {
		t.Fatal("stop flag lost across Run")
	}
	k.ClearStop()
	k.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("ClearStop did not re-arm the kernel (fired=%d)", fired)
	}
}

func TestKernelTrace(t *testing.T) {
	k := NewKernel()
	if k.Tracing() {
		t.Fatal("fresh kernel reports tracing enabled")
	}
	k.Trace("c", "before-tracer", 0) // must not panic with nil tracer

	ring := k.Tracer()
	if ring != nil {
		t.Fatal("fresh kernel has a tracer")
	}
	k.SetTracer(nil)
	k.Schedule(7, func() { k.Trace("comp", "ev", 0x40) })
	k.RunUntilIdle()

	k2 := NewKernel()
	r := trace.NewRing(8)
	k2.SetTracer(r)
	if !k2.Tracing() {
		t.Fatal("tracing not enabled after SetTracer")
	}
	k2.Schedule(7, func() { k2.Trace("comp", "ev", 0x40) })
	k2.RunUntilIdle()
	got := r.Entries()
	if len(got) != 1 || got[0].Tick != 7 || got[0].Seq != 1 ||
		got[0].Component != "comp" || got[0].Label != "ev" || got[0].Addr != 0x40 {
		t.Fatalf("trace recorded %+v", got)
	}
}

// TestOrderProperty: any random batch of scheduled delays fires in
// nondecreasing time order with FIFO tie-break.
func TestOrderProperty(t *testing.T) {
	err := quick.Check(func(delays []uint8) bool {
		k := NewKernel()
		type fire struct {
			at  Tick
			seq int
		}
		var fires []fire
		for i, d := range delays {
			i, d := i, d
			k.Schedule(Tick(d%50), func() { fires = append(fires, fire{k.Now(), i}) })
		}
		k.RunUntilIdle()
		if len(fires) != len(delays) {
			return false
		}
		for i := 1; i < len(fires); i++ {
			if fires[i].at < fires[i-1].at {
				return false
			}
			if fires[i].at == fires[i-1].at && delays[fires[i].seq]%50 == delays[fires[i-1].seq]%50 &&
				fires[i].seq < fires[i-1].seq {
				return false // same tick, same delay ⇒ FIFO by schedule order
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// refKernel is an executable model of the scheduler's semantics: one
// flat pending list, fired in (tick, then schedule order) — exactly
// what container/heap with a seq tie-break did. The wheel kernel must
// be observationally identical to it. The fields past pending are the
// rest of a kernel's state, for the model test (model_test.go).
type refKernel struct {
	now     Tick
	seq     uint64
	pending []refEvent

	executed, beyond uint64
	stopped          bool
	pollers          []refPoller
	nextID           int
}

type refEvent struct {
	when Tick
	seq  uint64
	id   int
	tag  uint64
}

func (e refEvent) before(o refEvent) bool {
	return e.when < o.when || (e.when == o.when && e.seq < o.seq)
}

func (r *refKernel) schedule(delay Tick, id int) {
	r.seq++
	r.pending = append(r.pending, refEvent{when: r.now + delay, seq: r.seq, id: id})
}

func (r *refKernel) run(fire func(id int)) {
	for len(r.pending) > 0 {
		min := 0
		for i := 1; i < len(r.pending); i++ {
			if r.pending[i].before(r.pending[min]) {
				min = i
			}
		}
		e := r.pending[min]
		r.pending[min] = r.pending[len(r.pending)-1]
		r.pending = r.pending[:len(r.pending)-1]
		r.now = e.when
		fire(e.id)
	}
}

// TestOrderMatchesReferenceSemantics drives the kernel and the
// reference model with an identical randomized script — same-tick
// bursts, delay-0 chains, far-future jumps, events scheduling more
// events (via Schedule and ScheduleAt) as they fire — and requires the
// exact same fire sequence. This is the ordering contract the wheel
// and its overflow heap must preserve bit-for-bit; the delay pool
// straddles the horizon and makes two live ticks share a bucket.
func TestOrderMatchesReferenceSemantics(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))

		// Pre-generate the script so both executions see identical
		// decisions: initial (delay, burst) seeds plus, for every event
		// that ever fires, the children it spawns when it does.
		type spawn struct {
			delay Tick
			useAt bool
		}
		delayPool := []Tick{0, 0, 0, 1, 1, 1, 2, 3, 5, 7, 40, 126, 127, 128, 129, 256, 1000}
		const maxEvents = 600
		initial := make([]Tick, 30)
		for i := range initial {
			initial[i] = delayPool[rnd.Intn(len(delayPool))]
		}
		children := make([][]spawn, maxEvents)
		for i := range children {
			kids := make([]spawn, rnd.Intn(3))
			for j := range kids {
				kids[j] = spawn{delay: delayPool[rnd.Intn(len(delayPool))], useAt: rnd.Intn(4) == 0}
			}
			children[i] = kids
		}

		// Execution 1: the real kernel.
		var gotOrder []int
		{
			k := NewKernel()
			next := 0
			var fire func(id int)
			add := func(s spawn) {
				if next >= maxEvents {
					return
				}
				id := next
				next++
				if s.useAt {
					k.ScheduleAt(k.Now()+s.delay, func() { fire(id) })
				} else {
					k.Schedule(s.delay, func() { fire(id) })
				}
			}
			fire = func(id int) {
				gotOrder = append(gotOrder, id)
				for _, s := range children[id] {
					add(s)
				}
			}
			for _, d := range initial {
				add(spawn{delay: d})
			}
			k.RunUntilIdle()
		}

		// Execution 2: the reference model. ScheduleAt(now+d) and
		// Schedule(d) are the same operation in the model.
		var wantOrder []int
		{
			r := &refKernel{}
			next := 0
			add := func(d Tick) {
				if next >= maxEvents {
					return
				}
				r.schedule(d, next)
				next++
			}
			for _, d := range initial {
				add(d)
			}
			r.run(func(id int) {
				wantOrder = append(wantOrder, id)
				for _, s := range children[id] {
					add(s.delay)
				}
			})
		}

		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("seed %d: fire %d is event %d, reference fired %d\nkernel:    %v\nreference: %v",
					seed, i, gotOrder[i], wantOrder[i], gotOrder, wantOrder)
			}
		}
	}
}

// TestEventLoopZeroAllocs pins the steady-state event loop — delay-0/1
// self-reschedules with a registered poller, the model's mid-range
// delays, one bucket shared by two live ticks, and one event beyond the
// horizon per round through the overflow heap — at zero allocations.
func TestEventLoopZeroAllocs(t *testing.T) {
	k := NewKernel()
	k.AddPoller(1000, func() {})
	var step func()
	n := 0
	step = func() {
		n++
		switch n % 16 {
		case 0:
			k.Schedule(0, step)
		case 3, 7:
			k.Schedule(8, step)
		case 5:
			k.Schedule(40, step)
		case 9:
			k.Schedule(100, step)
		case 11:
			k.Schedule(wheelSize-1, step)
		case 13:
			k.Schedule(5000, step) // beyond the horizon
		default:
			k.Schedule(1, step)
		}
	}
	// Warm the slab and the overflow heap's backing array.
	for i := 0; i < 40; i++ {
		k.Schedule(Tick(i%3), step)
	}
	k.Run(k.Now() + 20_000)
	if k.Stopped() || n == 0 || k.BeyondHorizon() == 0 {
		t.Fatal("warm-up did not run")
	}

	beyond := k.BeyondHorizon()
	avg := testing.AllocsPerRun(20, func() {
		k.Run(k.Now() + 5000)
	})
	if avg != 0 {
		t.Fatalf("steady-state event loop allocates %.2f times per 5000-tick run, want 0", avg)
	}
	if k.BeyondHorizon() < beyond+20 {
		t.Fatalf("%d schedules beyond the horizon in 21 rounds, want one a round", k.BeyondHorizon()-beyond)
	}
}

// TestKernelCutSteadyStateAllocs pins the explorer's per-choice-point
// kernel cost at zero allocations: a cut into a recycled snapshot and a
// restore from it, the kernel having run on in between.
func TestKernelCutSteadyStateAllocs(t *testing.T) {
	k := NewKernel()
	k.AddPoller(10, func() {})
	var step func()
	step = func() { k.Schedule(Tick(1+k.Now()%7), step) }
	for i := 0; i < 16; i++ {
		k.Schedule(Tick(i), step)
	}
	k.Schedule(300, step)
	k.Run(50)
	s := k.Snapshot()
	if avg := testing.AllocsPerRun(100, func() {
		k.SnapshotInto(s)
		k.Run(k.Now() + 20)
		k.Restore(s)
	}); avg != 0 {
		t.Fatalf("warm cut + restore allocates %.2f times, want 0", avg)
	}
}

// TestEventSize pins the slab's slot: four words and the list link. A
// cut copies the whole slab, so a field added here is paid per pending
// event per choice point.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("event is %d bytes, want 32", got)
	}
}

// TestScheduleOverflowPanics: a delay that wraps the tick counter would
// be filed into the past — under the wheel, run time backwards — so it
// panics like ScheduleAt into the past does.
func TestScheduleOverflowPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {})
	k.RunUntilIdle()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Schedule past MaxTick did not panic")
			}
		}()
		k.Schedule(MaxTick-9, func() {})
	}()
	// The last tick itself is schedulable and runs.
	k.Schedule(MaxTick-10, func() { k.Schedule(0, func() {}) })
	if k.RunUntilIdle() != MaxTick || k.Executed() != 3 || k.Pending() != 0 {
		t.Fatalf("run to MaxTick: now=%d executed=%d pending=%d", k.Now(), k.Executed(), k.Pending())
	}
}
