package network

import (
	"testing"

	"drftest/internal/rng"
	"drftest/internal/sim"
)

func TestLinkLatency(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "test", 7)
	var arrived sim.Tick
	k.Schedule(3, func() {
		l.SendMsg(func(any) { arrived = k.Now() }, nil)
	})
	k.RunUntilIdle()
	if arrived != 10 {
		t.Fatalf("message arrived at %d, want 10", arrived)
	}
	if l.Sent() != 1 {
		t.Fatalf("Sent=%d", l.Sent())
	}
}

func TestLinkPreservesOrder(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "fifo", 5)
	var order []int
	record := func(a any) { order = append(order, a.(int)) }
	for i := 0; i < 20; i++ {
		l.SendMsg(record, i)
	}
	k.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("ordered link reordered messages: %v", order)
		}
	}
}

// TestJitterLinkBounds checks the line-tagged send's jitter window;
// TestSendMsgJitterBounds checks the untagged one's.
func TestJitterLinkBounds(t *testing.T) {
	k := sim.NewKernel()
	l := NewJitterLink(k, "jit", 10, 5, rng.New(1, 1))
	var arrivals []sim.Tick
	fn := func(any) { arrivals = append(arrivals, k.Now()) }
	for i := 0; i < 200; i++ {
		l.SendMsgLine(fn, nil, uint64(i%4)*64)
	}
	k.RunUntilIdle()
	sawJitter := false
	for _, a := range arrivals {
		if a < 10 || a > 15 {
			t.Fatalf("arrival at %d outside [10,15]", a)
		}
		if a != 10 {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Fatal("jitter link never jittered")
	}
}

func TestSendMsgFIFOAndInterleaving(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "typed", 5)
	var order []int
	record := func(a any) { order = append(order, *a.(*int)) }
	vals := make([]int, 40)
	for i := range vals {
		vals[i] = i
		if i%3 == 0 {
			// Interleave the line-tagged send: both ride the same
			// constant-latency link and queue, so arrival order must
			// stay send order across the two.
			l.SendMsgLine(record, &vals[i], uint64(i)*64)
			continue
		}
		l.SendMsg(record, &vals[i])
	}
	k.RunUntilIdle()
	if len(order) != len(vals) {
		t.Fatalf("delivered %d of %d messages", len(order), len(vals))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("SendMsg reordered messages: %v", order)
		}
	}
	if int(l.Sent()) != len(vals) {
		t.Fatalf("Sent=%d, want %d", l.Sent(), len(vals))
	}
}

func TestSendMsgJitterBounds(t *testing.T) {
	k := sim.NewKernel()
	l := NewJitterLink(k, "jit", 10, 5, rng.New(2, 3))
	var arrivals []sim.Tick
	n := 0
	fn := func(any) { arrivals = append(arrivals, k.Now()); n++ }
	for i := 0; i < 200; i++ {
		l.SendMsg(fn, nil)
	}
	k.RunUntilIdle()
	if n != 200 {
		t.Fatalf("delivered %d of 200", n)
	}
	sawJitter := false
	for _, a := range arrivals {
		if a < 10 || a > 15 {
			t.Fatalf("arrival at %d outside [10,15]", a)
		}
		if a != 10 {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Fatal("jittered SendMsg never jittered")
	}
}

func TestLinkResetDropsQueuedMessages(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "reset", 5)
	delivered := 0
	fn := func(any) { delivered++ }
	l.SendMsg(fn, nil)
	l.SendMsg(fn, nil)
	// Reset is only valid alongside a kernel reset: the deliver events
	// and the message FIFO must be dropped together.
	k.Reset()
	l.Reset()
	if l.Sent() != 0 {
		t.Fatalf("Sent=%d after reset", l.Sent())
	}
	l.SendMsg(fn, nil)
	k.RunUntilIdle()
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (pre-reset messages must not leak)", delivered)
	}
}

func TestCrossbar(t *testing.T) {
	k := sim.NewKernel()
	c := NewCrossbar(k, "xbar", 4, 2)
	got := make([]int, 4)
	count := func(a any) { got[a.(int)]++ }
	for i := 0; i < 4; i++ {
		c.To(i).SendMsg(count, i)
		c.To(i).SendMsg(count, i)
	}
	k.RunUntilIdle()
	for i, n := range got {
		if n != 2 {
			t.Fatalf("port %d received %d messages", i, n)
		}
	}
	if c.TotalSent() != 8 {
		t.Fatalf("TotalSent=%d", c.TotalSent())
	}
}

// TestLinkQueueSteadyStateAllocs pins the typed queue's reuse under
// traffic that never lets it drain: one message is sent every tick on a
// link eight ticks long, so eight are always queued, yet after warm-up
// ten thousand sends and deliveries allocate nothing — the delivered
// prefix is reclaimed instead of the array regrowing.
func TestLinkQueueSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "steady", 8)
	delivered := 0
	fn := func(any) { delivered++ }
	var arg any = new(int)
	var tick func()
	tick = func() {
		l.SendMsg(fn, arg)
		k.Schedule(1, tick)
	}
	k.Schedule(0, tick)
	k.Run(1000) // warm the queue and the kernel's slab
	if n := testing.AllocsPerRun(1, func() { k.Run(k.Now() + 10000) }); n != 0 {
		t.Fatalf("10000 steady-state sends and deliveries allocate %.0f objects, want 0", n)
	}
	if l.Queued() == 0 || delivered < 10000 {
		t.Fatalf("%d messages queued and %d delivered: the queue drained, so nothing was pinned", l.Queued(), delivered)
	}
	if c := cap(l.msgQ); c > 64 {
		t.Fatalf("queue array grew to %d slots for a depth of 8", c)
	}
}
