package protocol

import (
	"strings"
	"testing"

	"drftest/internal/sim"
)

func demoSpec() *Spec {
	s := NewSpec("demo", []string{"I", "V"}, []string{"Ld", "St", "Inv"})
	s.Trans(0, 0, 1, "fill")
	s.Trans(1, 0, 1, "hit")
	s.StallOn(0, 1)
	s.Trans(1, 1, 1, "write")
	s.Trans(1, 2, 0, "inv")
	return s
}

func TestSpecDefaultsUndefined(t *testing.T) {
	s := demoSpec()
	if s.Cell(0, 2).Kind != Undefined {
		t.Fatal("unwritten cell is not Undefined")
	}
	if s.NumCells() != 6 {
		t.Fatalf("NumCells=%d", s.NumCells())
	}
	if s.CountKind(Undefined) != 1 || s.CountKind(Stall) != 1 || s.CountKind(Defined) != 4 {
		t.Fatalf("kind counts wrong: U=%d S=%d D=%d",
			s.CountKind(Undefined), s.CountKind(Stall), s.CountKind(Defined))
	}
}

func TestSpecOutOfRangePanics(t *testing.T) {
	s := demoSpec()
	for _, f := range []func(){
		func() { s.Trans(5, 0, 0, "x") },
		func() { s.Trans(0, 9, 0, "x") },
		func() { s.Trans(0, 0, 9, "x") },
		func() { s.Cell(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

// TestMachineNoRecorderNoOp pins the nil-safety contract: a machine
// bound to no hit table on a kernel with no tracer holds no recording
// state and fires defined and undefined transitions without panicking.
func TestMachineNoRecorderNoOp(t *testing.T) {
	m := NewMachine(demoSpec(), nil, sim.NewKernel())
	if cell := m.Fire(0, 0); cell.Kind != Defined {
		t.Fatalf("Fire returned %+v", cell)
	}
	faults := 0
	m.OnFault = func(*FaultError) { faults++ }
	if cell := m.Fire(0, 2); cell.Kind != Undefined || faults != 1 {
		t.Fatalf("undefined Fire returned %+v with %d faults", cell, faults)
	}
	if m.hits != nil {
		t.Fatal("uncounted machine holds a hit table")
	}
}

func TestMachineUndefinedFaults(t *testing.T) {
	var fault *FaultError
	m := NewMachine(demoSpec(), nil, sim.NewKernel())
	m.OnFault = func(f *FaultError) { fault = f }
	cell := m.Fire(0, 2)
	if cell.Kind != Undefined {
		t.Fatal("undefined cell returned wrong kind")
	}
	if fault == nil || fault.State != "I" || fault.Event != "Inv" {
		t.Fatalf("fault = %+v", fault)
	}
	if !strings.Contains(fault.Error(), "demo") {
		t.Fatalf("fault message lacks machine name: %s", fault.Error())
	}
}

func TestMachineUndefinedPanicsWithoutSink(t *testing.T) {
	m := NewMachine(demoSpec(), nil, sim.NewKernel())
	defer func() {
		if recover() == nil {
			t.Fatal("undefined transition without sink did not panic")
		}
	}()
	m.Fire(0, 2)
}

func TestRenderShowsAllCellKinds(t *testing.T) {
	var b strings.Builder
	demoSpec().Render(&b)
	out := b.String()
	for _, want := range []string{"Undef", "Stall", "-> V", "-> I", "Ld", "St", "Inv"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	demoSpec().RenderActions(&b)
	if !strings.Contains(b.String(), "fill") {
		t.Error("RenderActions missing action labels")
	}
}

func TestKindString(t *testing.T) {
	if Undefined.String() != "Undef" || Stall.String() != "Stall" || Defined.String() != "Defined" {
		t.Fatal("Kind.String broken")
	}
}
