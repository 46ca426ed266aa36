package trace

import "drftest/internal/protocol"

// Sink receives trace events. *sim.Kernel implements it; the
// indirection keeps this package free of a dependency on sim (which
// itself depends on the Ring).
type Sink interface {
	// Tracing reports whether events are being recorded; callers use
	// it to skip label construction entirely when tracing is off.
	Tracing() bool
	// Trace records one event at the sink's current time.
	Trace(component, label string, addr uint64)
}

// Recorder wires the protocol engine into the trace: it implements
// protocol.Recorder, forwards every fired transition to the wrapped
// recorder (normally the coverage collector), and — only while the
// sink is tracing — appends a "State×Event" entry for the machine.
// Transition labels come from each spec's own label table
// (protocol.Spec.Labels), built once per spec, so neither the hot path
// nor a build does any string building.
type Recorder struct {
	sink   Sink
	next   protocol.Recorder
	labels map[string][][]string // machine name → [state][event] label
}

// NewRecorder builds a Recorder over sink that forwards to next (which
// may be nil) and can label transitions of the given specs. Machines
// whose spec is not listed are forwarded but not traced.
func NewRecorder(sink Sink, next protocol.Recorder, specs ...*protocol.Spec) *Recorder {
	r := &Recorder{sink: sink, next: next, labels: make(map[string][][]string, len(specs))}
	for _, s := range specs {
		if _, dup := r.labels[s.Name]; !dup {
			r.labels[s.Name] = s.Labels()
		}
	}
	return r
}

// Record implements protocol.Recorder.
func (r *Recorder) Record(machine string, state, event int, kind protocol.Kind) {
	if r.next != nil {
		r.next.Record(machine, state, event, kind)
	}
	r.trace(machine, r.labels[machine], state, event)
}

// trace appends a transition's entry while the sink is tracing; tbl is
// the machine's label table, nil when its spec was not listed.
func (r *Recorder) trace(machine string, tbl [][]string, state, event int) {
	if tbl != nil && r.sink.Tracing() {
		r.sink.Trace(machine, tbl[state][event], 0)
	}
}

// Counters implements protocol.CounterSource by delegating to the
// wrapped recorder. When the inner recorder grants direct counters for
// spec, the machine increments those itself and this recorder's
// remaining job — tracing — comes back as the tee, chained after any
// tee the inner recorder returned. When the inner recorder declines
// (or is not a CounterSource), so does this one, and recording stays
// on the Record slow path.
func (r *Recorder) Counters(spec *protocol.Spec) ([][]uint64, protocol.Recorder) {
	cs, ok := r.next.(protocol.CounterSource)
	if !ok {
		return nil, nil
	}
	hits, inner := cs.Counters(spec)
	if hits == nil {
		return nil, nil
	}
	return hits, &traceTee{rec: r, inner: inner, labels: r.labels[spec.Name]}
}

// traceTee is the Counters tee: counting is already done by the
// machine, so Record here only runs the inner tee and the trace. It is
// one machine's, so it holds that machine's labels and a traced
// transition looks nothing up by name.
type traceTee struct {
	rec    *Recorder
	inner  protocol.Recorder
	labels [][]string
}

func (t *traceTee) Record(machine string, state, event int, kind protocol.Kind) {
	if t.inner != nil {
		t.inner.Record(machine, state, event, kind)
	}
	t.rec.trace(machine, t.labels, state, event)
}
