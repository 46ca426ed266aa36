package protocol_test

import (
	"testing"

	"drftest/internal/coverage"
	"drftest/internal/protocol"
	"drftest/internal/sim"
	"drftest/internal/trace"
)

func twoStateSpec() *protocol.Spec {
	spec := protocol.NewSpec("M", []string{"I", "V"}, []string{"Load", "Evict"})
	spec.Trans(0, 0, 1, "fill")
	spec.Trans(1, 1, 0, "evict")
	return spec
}

// TestMachineFireRecords pins the one recording path: a machine bound
// to a collector returns the fired cell, counts the transition into
// the collector's table for its spec, appends the transition's
// "State×Event" label to its kernel's trace exactly while the kernel
// traces, records nothing when bound to no collector, and cannot be
// bound to a collector that never registered its spec.
func TestMachineFireRecords(t *testing.T) {
	spec := twoStateSpec()
	col := coverage.NewCollector(spec)
	k := sim.NewKernel()
	m := protocol.NewMachine(spec, col.Counters(spec), k)

	// Untraced: counted only.
	if cell := m.Fire(0, 0); cell.Kind != protocol.Defined || cell.Next != 1 {
		t.Fatalf("Fire returned %+v", cell)
	}
	// Traced: counted and traced, with the spec's own label.
	ring := trace.NewRing(8)
	k.SetTracer(ring)
	m.Fire(1, 1)
	m.Fire(0, 0)
	// A disabled tracer traces nothing, but counting goes on.
	k.SetTracer(trace.NewRing(0))
	m.Fire(0, 0)

	hits := col.Matrix("M").Hits
	if hits[0][0] != 3 || hits[1][1] != 1 || col.Matrix("M").Total() != 4 {
		t.Fatalf("collector counted %v, want [I,Load]=3 [V,Evict]=1", hits)
	}
	got := ring.Entries()
	if len(got) != 2 || got[0].Component != "M" || got[0].Label != "V×Evict" ||
		got[1].Component != "M" || got[1].Label != "I×Load" || got[0].Addr != 0 {
		t.Fatalf("trace entries = %+v, want M V×Evict then M I×Load", got)
	}

	// No collector: the machine fires, counts nothing and holds no table.
	quiet := protocol.NewMachine(spec, (*coverage.Collector)(nil).Counters(spec), k)
	if cell := quiet.Fire(0, 0); cell.Kind != protocol.Defined {
		t.Fatalf("uncounted Fire returned %+v", cell)
	}
	if hits[0][0] != 3 {
		t.Fatal("a machine bound to no collector counted into one")
	}

	// A spec the collector never registered fails at bind, not at the
	// first Fire.
	ghost := protocol.NewSpec("ghost", []string{"I"}, []string{"E"})
	defer func() {
		if recover() == nil {
			t.Fatal("binding an unregistered spec did not panic")
		}
	}()
	col.Counters(ghost)
}

// TestMachineCounterFastPath pins that machines count by indexing the
// bound table directly: every machine of one spec shares the
// collector's table, so transitions fired by either land in the same
// cells, and the table handed out is the collector's own matrix.
func TestMachineCounterFastPath(t *testing.T) {
	spec := twoStateSpec()
	col := coverage.NewCollector(spec)
	k := sim.NewKernel()
	a := protocol.NewMachine(spec, col.Counters(spec), k)
	b := protocol.NewMachine(spec, col.Counters(spec), k)

	a.Fire(0, 0)
	b.Fire(0, 0)
	b.Fire(1, 1)

	hits := col.Counters(spec)
	if &hits[0][0] != &col.Matrix("M").Hits[0][0] {
		t.Fatal("Counters did not hand out the collector's own table")
	}
	if hits[0][0] != 2 || hits[1][1] != 1 || hits[0][1] != 0 || hits[1][0] != 0 {
		t.Fatalf("direct counters = %v, want [I,Load]=2 [V,Evict]=1", hits)
	}
}
