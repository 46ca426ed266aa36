package trace_test

import (
	"testing"

	"drftest/internal/coverage"
	"drftest/internal/protocol"
	"drftest/internal/sim"
	"drftest/internal/trace"
)

// Transitions reach the trace through the machine that fires them: a
// protocol.Machine appends its spec's "State×Event" label to its
// kernel's ring while the kernel traces. These tests pin what the ring
// records of them.

// TestRecorderLabelsAndForwards: each machine labels its entries with
// its own spec's name and label table, including an undefined cell,
// which is traced before it faults; a kernel whose tracer is off or
// absent records nothing.
func TestRecorderLabelsAndForwards(t *testing.T) {
	l1 := protocol.NewSpec("L1", []string{"I", "V"}, []string{"Load", "Evict"})
	l1.Trans(0, 0, 1, "fill")
	dir := protocol.NewSpec("Dir", []string{"U", "S"}, []string{"GetS"})
	dir.Trans(0, 0, 1, "share")

	k := sim.NewKernel()
	ring := trace.NewRing(8)
	k.SetTracer(ring)
	a := protocol.NewMachine(l1, nil, k)
	b := protocol.NewMachine(dir, nil, k)
	a.OnFault = func(*protocol.FaultError) {}

	a.Fire(0, 0)
	b.Fire(0, 0)
	if cell := a.Fire(0, 1); cell.Kind != protocol.Undefined {
		t.Fatalf("Fire(I, Evict) returned %+v, want undefined", cell)
	}
	want := []trace.Entry{
		{Component: "L1", Label: "I×Load"},
		{Component: "Dir", Label: "U×GetS"},
		{Component: "L1", Label: "I×Evict"},
	}
	got := ring.Entries()
	if len(got) != len(want) {
		t.Fatalf("trace entries = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].Component != want[i].Component || got[i].Label != want[i].Label || got[i].Addr != 0 {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	k.SetTracer(trace.NewRing(0))
	a.Fire(0, 0)
	k.SetTracer(nil)
	b.Fire(0, 0)
	if n := len(ring.Entries()); n != len(want) {
		t.Fatalf("ring holds %d entries after tracing stopped, want %d", n, len(want))
	}
}

// TestRecorderCountersDelegation: one Fire both counts the transition
// into the collector's table and traces it, and counting goes on
// unchanged while the kernel is not tracing.
func TestRecorderCountersDelegation(t *testing.T) {
	spec := protocol.NewSpec("M", []string{"I", "V"}, []string{"Load", "Evict"})
	spec.Trans(0, 0, 1, "fill")
	col := coverage.NewCollector(spec)
	k := sim.NewKernel()
	ring := trace.NewRing(4)
	k.SetTracer(ring)
	m := protocol.NewMachine(spec, col.Counters(spec), k)

	m.Fire(0, 0)
	hits := col.Matrix("M").Hits
	if hits[0][0] != 1 {
		t.Fatalf("direct counters = %v", hits)
	}
	if got := ring.Entries(); len(got) != 1 || got[0].Label != "I×Load" {
		t.Fatalf("trace entries = %+v", got)
	}
	k.SetTracer(nil)
	m.Fire(0, 0)
	if hits[0][0] != 2 || len(ring.Entries()) != 1 {
		t.Fatal("counting or quiet-kernel behavior broken")
	}
}
