package memctrl

import (
	"testing"

	"drftest/internal/mem"
	"drftest/internal/sim"
)

func newCtrl() (*sim.Kernel, *Controller) {
	k := sim.NewKernel()
	return k, New(k, Config{AccessLatency: 100, ServicePeriod: 4}, mem.NewStore(), nil)
}

// wline builds a pool-owned unmasked write payload.
func wline(c *Controller, n int, set func(d []byte)) *mem.Line {
	l := c.Pool().Get(n)
	clear(l.Data)
	if set != nil {
		set(l.Data)
	}
	return l
}

func TestReadAfterWriteFIFO(t *testing.T) {
	k, c := newCtrl()
	var got []byte
	c.WriteLine(0x1000, wline(c, 64, func(d []byte) { d[3] = 0xEE }), func(any) {}, nil)
	c.ReadLine(0x1000, 64, func(d *mem.Line, _ any) {
		got = append([]byte(nil), d.Data...)
		d.Release()
	}, nil)
	k.RunUntilIdle()
	if got == nil || got[3] != 0xEE {
		t.Fatal("read did not observe earlier queued write (FIFO broken)")
	}
}

func TestMaskedWrite(t *testing.T) {
	k, c := newCtrl()
	full := wline(c, 8, func(d []byte) {
		for i := range d {
			d[i] = 0x11
		}
	})
	c.WriteLine(0, full, func(any) {}, nil)
	patch := c.Pool().GetMasked(8)
	clear(patch.Data)
	patch.Data[2], patch.Mask()[2] = 0x99, true
	c.WriteLine(0, patch, func(any) {}, nil)
	var got []byte
	c.ReadLine(0, 8, func(d *mem.Line, _ any) {
		got = append([]byte(nil), d.Data...)
		d.Release()
	}, nil)
	k.RunUntilIdle()
	if got[2] != 0x99 || got[1] != 0x11 {
		t.Fatalf("masked write produced %v", got)
	}
}

// TestWriteOwnershipAndCOW pins the handle-transfer contract that
// replaced the old copy-at-enqueue behaviour: a caller that keeps
// using a queued payload must retain it and mutate only through
// Writable, which copies exactly when the queued reference is live.
func TestWriteOwnershipAndCOW(t *testing.T) {
	k, c := newCtrl()
	l := wline(c, 4, func(d []byte) { d[0] = 1 })
	l.Retain() // caller keeps a reference alongside the queued write
	c.WriteLine(0, l, func(any) {}, nil)
	// Caller "reuses the buffer" before service time — through
	// Writable, which must copy (the controller still holds a ref).
	wl := l.Writable()
	if wl == l {
		t.Fatal("Writable aliased a shared payload")
	}
	wl.Data[0] = 99
	wl.Release()
	var got []byte
	c.ReadLine(0, 4, func(d *mem.Line, _ any) {
		got = append([]byte(nil), d.Data...)
		d.Release()
	}, nil)
	k.RunUntilIdle()
	if got[0] != 1 {
		t.Fatal("queued write observed the caller's later mutation")
	}
	// Sole-owner Writable is in-place: no copy when nobody shares.
	solo := wline(c, 4, nil)
	if solo.Writable() != solo {
		t.Fatal("Writable copied a sole-owner payload")
	}
	solo.Release()
}

func TestAtomicSerialized(t *testing.T) {
	k, c := newCtrl()
	seen := map[uint32]bool{}
	for i := 0; i < 50; i++ {
		c.Atomic(0x40, 1, func(old uint32, nack bool, _ any) {
			if nack {
				t.Error("memctrl NACKed an atomic")
			}
			if seen[old] {
				t.Errorf("duplicate atomic old value %d", old)
			}
			seen[old] = true
		}, nil)
	}
	k.RunUntilIdle()
	if len(seen) != 50 {
		t.Fatalf("%d distinct old values, want 50", len(seen))
	}
	if c.Store().ReadWord(0x40) != 50 {
		t.Fatalf("final value %d", c.Store().ReadWord(0x40))
	}
}

func TestServicePeriodSpacesCompletions(t *testing.T) {
	k, c := newCtrl()
	var times []sim.Tick
	for i := 0; i < 5; i++ {
		c.ReadLine(mem.Addr(i*64), 64, func(d *mem.Line, _ any) {
			times = append(times, k.Now())
			d.Release()
		}, nil)
	}
	k.RunUntilIdle()
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] != 4 {
			t.Fatalf("completions spaced %d apart, want ServicePeriod=4: %v", times[i]-times[i-1], times)
		}
	}
	if times[0] < 100 {
		t.Fatalf("first completion at %d, before AccessLatency", times[0])
	}
}

func TestStats(t *testing.T) {
	k, c := newCtrl()
	c.ReadLine(0, 64, func(d *mem.Line, _ any) { d.Release() }, nil)
	c.WriteLine(64, wline(c, 64, nil), func(any) {}, nil)
	c.Atomic(128, 1, func(uint32, bool, any) {}, nil)
	k.RunUntilIdle()
	r, w, a, peak := c.Stats()
	if r != 1 || w != 1 || a != 1 {
		t.Fatalf("stats r=%d w=%d a=%d", r, w, a)
	}
	if peak < 1 {
		t.Fatalf("peak queue %d", peak)
	}
}

// TestSteadyStateRecycles pins the pool behaviour the zero-copy plane
// depends on: after warmup, reads and writes recycle lines instead of
// allocating.
func TestSteadyStateRecycles(t *testing.T) {
	k, c := newCtrl()
	for i := 0; i < 8; i++ {
		c.WriteLine(0, wline(c, 64, nil), func(any) {}, nil)
		c.ReadLine(0, 64, func(d *mem.Line, _ any) { d.Release() }, nil)
		k.RunUntilIdle()
	}
	_, allocsWarm := c.Pool().Stats()
	for i := 0; i < 64; i++ {
		c.WriteLine(0, wline(c, 64, nil), func(any) {}, nil)
		c.ReadLine(0, 64, func(d *mem.Line, _ any) { d.Release() }, nil)
		k.RunUntilIdle()
	}
	_, allocsAfter := c.Pool().Stats()
	if allocsAfter != allocsWarm {
		t.Fatalf("steady state allocated %d new lines", allocsAfter-allocsWarm)
	}
}

// TestRingGrowsUnderCompletion fills the ring exactly, so the first
// completion's callback — which runs while complete still reads its
// request in place — pushes into a full ring and reallocates it. Every
// request must still complete once, in order, and the peak must count
// the requests waiting for service, not the ring's occupancy.
func TestRingGrowsUnderCompletion(t *testing.T) {
	k, c := newCtrl()
	const first = 64 // the ring's first capacity
	var got []int
	done := func(old uint32, _ bool, ctx any) {
		if n := ctx.(int); n == 0 {
			c.Atomic(0x40, 1, func(old uint32, _ bool, ctx any) { got = append(got, int(old)) }, first)
		}
		got = append(got, int(old))
	}
	for i := 0; i < first; i++ {
		c.Atomic(0x40, 1, done, i)
	}
	if len(c.queue.slots) != first {
		t.Fatalf("ring holds %d slots after %d pushes, want it exactly full", len(c.queue.slots), first)
	}
	k.RunUntilIdle()
	if len(c.queue.slots) != 2*first {
		t.Fatalf("ring holds %d slots, want the completion's push to have doubled it", len(c.queue.slots))
	}
	for i, old := range got {
		if old != i {
			t.Fatalf("completion %d saw old value %d: %v", i, old, got)
		}
	}
	if _, _, a, peak := c.Stats(); len(got) != first+1 || a != first+1 || peak != first {
		t.Fatalf("%d completions, %d atomics, peak %d; want %d, %d, %d", len(got), a, peak, first+1, first+1, first)
	}
	if c.queue.head != c.queue.tail || c.queue.next != c.queue.tail {
		t.Fatalf("idle ring has cursors %d/%d/%d", c.queue.head, c.queue.next, c.queue.tail)
	}
}

// TestSnapshotMidFlight cuts the controller with requests on both
// sides of the service cursor and replays the rest twice: the restore
// must put each request back on its side.
func TestSnapshotMidFlight(t *testing.T) {
	k, c := newCtrl()
	var got []uint32
	done := func(old uint32, _ bool, _ any) { got = append(got, old) }
	for i := 0; i < 40; i++ {
		c.Atomic(0x40, 1, done, nil)
	}
	k.Run(110) // just past AccessLatency: a few complete, most in flight, the rest waiting
	inflight, queued := int(c.queue.next-c.queue.head), c.queue.queued()
	if inflight == 0 || queued == 0 || len(got) == 0 {
		t.Fatalf("cut has %d in flight, %d queued, %d complete; want some of each", inflight, queued, len(got))
	}
	ks, cs := k.Snapshot(), c.Snapshot()
	k.RunUntilIdle()
	want := append([]uint32(nil), got...)

	got = got[:len(want)-inflight-queued]
	k.Restore(ks)
	c.Restore(cs)
	if int(c.queue.next-c.queue.head) != inflight || c.queue.queued() != queued {
		t.Fatalf("restore left %d in flight, %d queued; want %d, %d", c.queue.next-c.queue.head, c.queue.queued(), inflight, queued)
	}
	k.RunUntilIdle()
	if len(got) != len(want) {
		t.Fatalf("replay completed %d requests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("replay completion %d saw %d, want %d", i, got[i], want[i])
		}
	}
}
