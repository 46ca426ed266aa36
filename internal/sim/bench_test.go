package sim

import (
	"testing"

	"drftest/internal/trace"
)

// benchmarkEventLoop drives a self-rescheduling event chain — the
// kernel's hot path — with one registered poller, the shape of a real
// tester run (heartbeat poller + request/response events).
func benchmarkEventLoop(b *testing.B, k *Kernel) {
	polls := 0
	k.AddPoller(1000, func() { polls++ })
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			k.Schedule(1, step)
		}
	}
	k.Schedule(1, step)
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntilIdle()
	if n != b.N {
		b.Fatalf("ran %d of %d events", n, b.N)
	}
}

// BenchmarkEventLoop measures the event loop with tracing disabled
// (the default); it is the baseline the tracing subsystem must stay
// within 2% of.
func BenchmarkEventLoop(b *testing.B) {
	benchmarkEventLoop(b, NewKernel())
}

// BenchmarkEventLoopDeep is the beyond-horizon stress: 10k pending
// events spread over 10k ticks, and three eighths of the rescheduling
// traffic (900, 2500, 170) lands in the overflow heap and migrates into
// the wheel later — the path the model's own latencies almost never
// take (TestHorizonCoversModelLatencies).
func BenchmarkEventLoopDeep(b *testing.B) {
	k := NewKernel()
	delays := [8]Tick{1, 3, 900, 40, 7, 2500, 170, 12}
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			k.Schedule(delays[n&7], step)
		}
	}
	const depth = 10_000
	for i := 0; i < depth; i++ {
		k.Schedule(delays[i&7]+Tick(i), step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntilIdle()
	if n < b.N {
		b.Fatalf("ran %d of %d events", n, b.N)
	}
}

// BenchmarkEventLoopModelMix drives the delay mix measured on the
// benchmark's tester_small workload (delay 1: 24 %, 4: 19 %, 8: 38 %,
// 100: 19 %) at its typical queue depth of 45 — the load the wheel is
// sized for.
func BenchmarkEventLoopModelMix(b *testing.B) {
	k := NewKernel()
	delays := [16]Tick{1, 8, 4, 100, 8, 1, 8, 4, 100, 8, 1, 8, 4, 100, 8, 1}
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			k.Schedule(delays[n&15], step)
		}
	}
	const depth = 45
	for i := 0; i < depth; i++ {
		k.Schedule(delays[i&15], step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntilIdle()
	if n < b.N {
		b.Fatalf("ran %d of %d events", n, b.N)
	}
}

// BenchmarkKernelCut measures one explorer cut and rewind of the
// kernel alone: SnapshotInto a recycled snapshot plus Restore, 16
// events pending.
func BenchmarkKernelCut(b *testing.B) {
	k := NewKernel()
	for i := 0; i < 16; i++ {
		k.Schedule(Tick(1+i%5), func() {})
	}
	s := k.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.SnapshotInto(s)
		k.Restore(s)
	}
}

// BenchmarkEventLoopTracing measures the loop with an attached ring
// and one trace entry recorded per event — the enabled-tracing cost.
func BenchmarkEventLoopTracing(b *testing.B) {
	k := NewKernel()
	k.SetTracer(trace.NewRing(4096))
	polls := 0
	k.AddPoller(1000, func() { polls++ })
	n := 0
	var step func()
	step = func() {
		n++
		k.Trace("bench", "step", uint64(n))
		if n < b.N {
			k.Schedule(1, step)
		}
	}
	k.Schedule(1, step)
	b.ResetTimer()
	k.RunUntilIdle()
}
