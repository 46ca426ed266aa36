// Package protocol is the SLICC-analogue at the heart of the model: a
// declarative (state × event) transition table plus the machinery a
// cache controller needs to consult it, record coverage, and fault on
// undefined transitions.
//
// Ruby's SLICC compiles protocol specifications into exactly this form,
// and the paper measures testing quality as the fraction of defined
// (state, event) cells a workload activates. Keeping the table explicit
// and first-class is what lets the coverage package reproduce the
// paper's heat maps (Fig. 5), classification grids (Fig. 7), and
// coverage percentages (Figs. 8–10) for any controller.
package protocol

import (
	"fmt"
	"sync"
)

// Kind classifies a (state, event) cell of a transition table.
type Kind uint8

const (
	// Undefined means the protocol declares the event impossible in
	// the state; observing it is itself a protocol bug ("Undef" in the
	// paper's Fig. 7).
	Undefined Kind = iota
	// Stall means the controller must hold the message and retry after
	// the line's state changes.
	Stall
	// Defined means the cell has a real transition.
	Defined
)

func (k Kind) String() string {
	switch k {
	case Undefined:
		return "Undef"
	case Stall:
		return "Stall"
	case Defined:
		return "Defined"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Cell is one entry of a transition table.
type Cell struct {
	Kind Kind
	// Next is the destination state for Defined cells; for Stall and
	// Undefined cells it is ignored. A Defined cell may keep Next equal
	// to the current state (self-transition).
	Next int
	// Label names the transition's action, for table printouts.
	Label string
}

// Spec declares a controller's states, events and transition table.
// Cells defaults to Undefined, matching SLICC's "anything not written
// is an error" semantics.
type Spec struct {
	Name   string
	States []string
	Events []string
	cells  [][]Cell // [state][event]

	// labels is the "State×Event" table Labels builds once.
	labels     [][]string
	labelsOnce sync.Once
}

// NewSpec creates an empty spec with every cell Undefined.
func NewSpec(name string, states, events []string) *Spec {
	s := &Spec{Name: name, States: states, Events: events}
	s.cells = make([][]Cell, len(states))
	for i := range s.cells {
		s.cells[i] = make([]Cell, len(events))
		for j := range s.cells[i] {
			s.cells[i][j] = Cell{Kind: Undefined}
		}
	}
	return s
}

// Trans declares a defined transition state --event--> next.
func (s *Spec) Trans(state, event, next int, label string) *Spec {
	s.check(state, event)
	if next < 0 || next >= len(s.States) {
		panic(fmt.Sprintf("protocol %s: bad next state %d", s.Name, next))
	}
	s.cells[state][event] = Cell{Kind: Defined, Next: next, Label: label}
	return s
}

// StallOn declares that event stalls in state.
func (s *Spec) StallOn(state, event int) *Spec {
	s.check(state, event)
	s.cells[state][event] = Cell{Kind: Stall, Next: state, Label: "stall"}
	return s
}

func (s *Spec) check(state, event int) {
	if state < 0 || state >= len(s.States) || event < 0 || event >= len(s.Events) {
		panic(fmt.Sprintf("protocol %s: cell (%d,%d) out of range", s.Name, state, event))
	}
}

// Cell returns the cell at (state, event).
func (s *Spec) Cell(state, event int) Cell {
	s.check(state, event)
	return s.cells[state][event]
}

// Labels returns the [state][event] table of "State×Event" trace
// labels, built on first use and shared by every caller afterwards:
// callers must not modify it.
func (s *Spec) Labels() [][]string {
	s.labelsOnce.Do(func() {
		s.labels = make([][]string, len(s.States))
		for i, st := range s.States {
			s.labels[i] = make([]string, len(s.Events))
			for j, ev := range s.Events {
				s.labels[i][j] = st + "×" + ev
			}
		}
	})
	return s.labels
}

// NumCells returns the table size.
func (s *Spec) NumCells() int { return len(s.States) * len(s.Events) }

// CountKind returns how many cells have kind k.
func (s *Spec) CountKind(k Kind) int {
	n := 0
	for _, row := range s.cells {
		for _, c := range row {
			if c.Kind == k {
				n++
			}
		}
	}
	return n
}

// Recorder receives every fired transition. The coverage package
// implements it; a nil recorder is allowed everywhere.
type Recorder interface {
	// Record notes that machine saw event in state; kind is the cell's
	// declared kind (Undefined firings are recorded before faulting so
	// the failure itself is visible in the matrix).
	Record(machine string, state, event int, kind Kind)
}

// CounterSource is the fast-path extension of Recorder. A recorder
// that implements it can hand a machine direct access to the
// [state][event] hit-count table it would otherwise maintain through
// Record. NewMachine queries it once at bind time; when Counters
// returns a non-nil table, the machine increments
// hits[state][event] itself on every Fire — no per-transition name
// lookup — and forwards to tee (which may be nil) for any remaining
// side effects, such as tracing. Returning (nil, nil) declines the
// fast path for that spec and the machine falls back to calling
// Record, preserving whatever behavior (including panics on unknown
// machines) the recorder implements there.
type CounterSource interface {
	Counters(spec *Spec) (hits [][]uint64, tee Recorder)
}

// FaultError reports an undefined transition: the protocol
// implementation let an event reach a state that cannot accept it.
type FaultError struct {
	Machine      string
	State, Event string
	Detail       string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("protocol fault: machine %s received %s in state %s (%s)", e.Machine, e.Event, e.State, e.Detail)
}

// Machine binds a Spec to a Recorder and a fault sink. Controllers call
// Fire for every message they process.
type Machine struct {
	Spec *Spec
	rec  Recorder
	// hits, when non-nil, is the CounterSource fast path: Fire bumps
	// hits[state][event] directly and forwards to tee (if non-nil)
	// instead of calling rec.Record.
	hits [][]uint64
	tee  Recorder
	// OnFault is invoked for undefined transitions. If nil, Fire
	// panics, which is the right default for a simulator: an undefined
	// transition means the model itself is broken.
	OnFault func(*FaultError)
}

// NewMachine binds spec to recorder rec (which may be nil). If rec is
// a CounterSource that grants direct counters for spec, the machine
// records through them; otherwise every Fire goes through rec.Record.
// With no recorder and no counters, recording is a no-op.
func NewMachine(spec *Spec, rec Recorder) *Machine {
	m := &Machine{Spec: spec, rec: rec}
	if cs, ok := rec.(CounterSource); ok {
		if hits, tee := cs.Counters(spec); hits != nil {
			m.hits, m.tee = hits, tee
			m.rec = nil
		}
	}
	return m
}

// Fire looks up (state, event), records it, and returns the cell.
// Undefined cells invoke the fault sink and return with Kind==Undefined
// so the caller can abandon the message.
func (m *Machine) Fire(state, event int) Cell {
	c := m.Spec.Cell(state, event)
	if m.hits != nil {
		m.hits[state][event]++
		if m.tee != nil {
			m.tee.Record(m.Spec.Name, state, event, c.Kind)
		}
	} else if m.rec != nil {
		m.rec.Record(m.Spec.Name, state, event, c.Kind)
	}
	if c.Kind == Undefined {
		f := &FaultError{
			Machine: m.Spec.Name,
			State:   m.Spec.States[state],
			Event:   m.Spec.Events[event],
			Detail:  "undefined transition",
		}
		if m.OnFault != nil {
			m.OnFault(f)
		} else {
			panic(f)
		}
	}
	return c
}
