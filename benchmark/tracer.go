package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"drftest/internal/sim"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own calls into the program. Parent is the span that was
// open when this one began (0 = none); Run names the workload, so the
// spans of one run share an identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	// StartNs and EndNs are nanoseconds since the tracer was created.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Spans opened with
// do nest on one goroutine; record adds a finished span from any
// goroutine (the daemon's handler middleware).
type tracer struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  []int // IDs of the spans do has open, innermost last
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.open[len(t.open)-1]
}

// do runs fn inside a span and returns its duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Run: t.run, Name: name})
	t.open = append(t.open, id)
	t.mu.Unlock()

	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)

	t.mu.Lock()
	t.spans[id-1].StartNs, t.spans[id-1].EndNs = int64(start), int64(end)
	t.open = t.open[:len(t.open)-1]
	t.mu.Unlock()
	return end - start
}

// record adds a span that began at start and ends now, as a child of
// the span do currently has open.
func (t *tracer) record(name string, start time.Time) time.Duration {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.parent(), Run: t.run, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0)),
	})
	return end.Sub(start)
}

// durations returns the duration of every span called name, in
// microseconds, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}

// selfTimes returns, by span ID, each span's duration minus the part of
// that interval its child spans cover. Children may overlap (the
// daemon's handlers run concurrently), so covered time is the union of
// the child intervals.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			from, to := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// appendTo appends the spans to path as JSON lines. Children run one at
// a time, so appends from successive children do not interleave.
func (t *tracer) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// numClasses is the number of component classes the top four bits of an
// event tag can name (class 0 is untagged).
const numClasses = 16

// classChooser is technique T1: a sim.Chooser that always takes the
// FIFO head, so the run is bit-identical to the plain event loop, and
// charges the host time between consecutive Choose calls to the
// component class in the fired event's tag. Time is charged to the
// component that scheduled the event and includes the handlers the
// event calls.
type classChooser struct {
	last   time.Time
	class  int
	Events [numClasses]uint64
	Nanos  [numClasses]int64
}

func (c *classChooser) Choose(_ sim.Tick, cands []sim.Enabled) int {
	now := time.Now()
	c.settle(now)
	c.class = int(cands[0].Tag >> 60)
	c.Events[c.class]++
	c.last = now
	return 0
}

// settle charges the time since the last Choose to the class then
// fired. Call it once more after Kernel.Run returns.
func (c *classChooser) settle(now time.Time) {
	if !c.last.IsZero() {
		c.Nanos[c.class] += int64(now.Sub(c.last))
	}
	c.last = time.Time{}
}
