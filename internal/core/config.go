// Package core implements the paper's contribution: a completely
// autonomous, random, data-race-free (DRF) tester for GPU cache
// coherence protocols under relaxed memory models.
//
// The tester replaces the GPU core model: its threads attach directly
// to the L1 sequencers and issue *episodes* — critical-section-shaped
// sequences beginning with an atomic acquire of a synchronization
// variable, followed by random loads/stores of data variables chosen so
// that no two concurrently live episodes race, and ending with an
// atomic release. Because the generated program is data-race-free, the
// tester can maintain a reference memory and deterministically know the
// value every load must observe, the old value every atomic must
// return, and that every request must complete — giving it the three
// autonomous checks of §III.C: value consistency, atomicity
// (monotonicity/uniqueness), and forward progress.
package core

import (
	"fmt"

	"drftest/internal/mem"
	"drftest/internal/sim"
)

// Config parameterizes one GPU tester run (the knobs of Table III).
type Config struct {
	// Seed drives all of the run's randomness; equal seeds replay
	// identical runs, which is what makes failures reproducible.
	Seed uint64

	// NumWavefronts is the number of lockstep thread groups; wavefront
	// w attaches to CU (w mod NumCUs).
	NumWavefronts int
	// ThreadsPerWF is the number of lanes per wavefront; lanes advance
	// in lockstep (SIMT).
	ThreadsPerWF int

	// EpisodesPerThread is the number of episodes each thread executes
	// (paper: 10 or 100). Every lane of a wavefront runs its own
	// episodes, so a wavefront as a whole retires
	// ThreadsPerWF × EpisodesPerThread of them; the field was once named
	// EpisodesPerWF after the paper's per-wavefront phrasing, and keeps
	// that name in JSON so schema-v1 replay artifacts stay loadable.
	EpisodesPerThread int `json:"EpisodesPerWF"`
	// ActionsPerEpisode is the total memory operations per episode,
	// including the acquire and release (paper: 100 or 200).
	ActionsPerEpisode int

	// NumSyncVars is the number of atomic (synchronization) locations
	// (paper: 10 or 100); NumDataVars the number of regular locations
	// (paper: 1M).
	NumSyncVars int
	NumDataVars int
	// AddressRangeBytes is the span variables are randomly mapped into;
	// the default (twice the packed size) makes distinct variables
	// co-locate in cache lines, provoking false sharing (Fig. 2).
	AddressRangeBytes uint64

	// StoreFraction is the probability a generated data action is a
	// store rather than a load.
	StoreFraction float64

	// AtomicDelta is the constant every atomic adds; old values per
	// sync variable must be unique multiples of it.
	AtomicDelta uint32

	// DeadlockThreshold is the age, in ticks, beyond which an
	// unanswered request is reported as a deadlock (paper: 1M cycles).
	DeadlockThreshold uint64
	// CheckPeriod is how often the forward-progress scan runs.
	CheckPeriod sim.Tick

	// LogCapacity bounds the in-memory transaction log used for
	// failure reports (0 = default).
	LogCapacity int

	// StopOnFailure halts the simulation at the first detected bug
	// (default behaviour; set KeepGoing to gather multiple failures).
	KeepGoing bool

	// RecordTrace captures the complete execution (every operation plus
	// episode creation/retirement ordering) in Report.Trace so the
	// independent axiomatic checker (internal/checker) can re-verify
	// the run offline, TSOTool-style.
	RecordTrace bool

	// StreamCheck runs the axiomatic checker online: every completed
	// operation and episode retirement is folded into the bounded
	// per-variable state of a checker.Stream as the run progresses, and
	// Report.StreamViolations carries its findings. Unlike RecordTrace
	// it never materializes the execution, so it can ride along on
	// arbitrarily long runs. The folding happens off the critical path,
	// in a dedicated checker goroutine fed through a fixed-capacity
	// SPSC ring (checker.Pipeline); reports are byte-identical to
	// inline folding.
	StreamCheck bool

	// StreamInline forces the online checker to fold events inline on
	// the simulation thread instead of in the pipeline's checker
	// goroutine. The pipeline falls back to inline folding on its own
	// when GOMAXPROCS is 1; this knob pins that mode anywhere — the
	// two must produce byte-identical reports, and determinism triage
	// wants either side of the comparison on demand.
	StreamInline bool
}

// DefaultConfig returns a moderate tester configuration suitable for a
// quick run on the default 8-CU system.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		NumWavefronts:     16,
		ThreadsPerWF:      4,
		EpisodesPerThread: 10,
		ActionsPerEpisode: 100,
		NumSyncVars:       10,
		NumDataVars:       4096,
		StoreFraction:     0.45,
		AtomicDelta:       1,
		DeadlockThreshold: 1_000_000,
		CheckPeriod:       50_000,
		LogCapacity:       4096,
	}
}

func (c Config) withDefaults() Config {
	if c.ThreadsPerWF <= 0 {
		c.ThreadsPerWF = 4
	}
	if c.NumWavefronts <= 0 {
		c.NumWavefronts = 1
	}
	if c.EpisodesPerThread <= 0 {
		c.EpisodesPerThread = 1
	}
	if c.ActionsPerEpisode < 2 {
		c.ActionsPerEpisode = 2
	}
	if c.NumSyncVars <= 0 {
		c.NumSyncVars = 1
	}
	if c.NumDataVars <= 0 {
		c.NumDataVars = 1024
	}
	if c.AtomicDelta == 0 {
		c.AtomicDelta = 1
	}
	if c.StoreFraction <= 0 || c.StoreFraction >= 1 {
		c.StoreFraction = 0.45
	}
	if c.DeadlockThreshold == 0 {
		c.DeadlockThreshold = 1_000_000
	}
	if c.CheckPeriod == 0 {
		c.CheckPeriod = 50_000
	}
	if c.LogCapacity <= 0 {
		c.LogCapacity = 4096
	}
	if c.AddressRangeBytes == 0 {
		c.AddressRangeBytes = 2 * uint64(c.NumSyncVars+c.NumDataVars) * 4
	}
	return c
}

// Validate reports, naming the field, why a tester cannot be built from
// c; nil means New will not panic on it. A zero count means "default";
// a negative one is a mistake, and so is an explicit address range with
// fewer word slots than there are variables to map into it.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		n    int
	}{
		{"NumWavefronts", c.NumWavefronts}, {"ThreadsPerWF", c.ThreadsPerWF},
		{"EpisodesPerWF", c.EpisodesPerThread}, {"ActionsPerEpisode", c.ActionsPerEpisode},
		{"NumSyncVars", c.NumSyncVars}, {"NumDataVars", c.NumDataVars},
	} {
		if f.n < 0 {
			return fmt.Errorf("core: %s must not be negative, got %d", f.name, f.n)
		}
	}
	d := c.withDefaults()
	if vars := uint64(d.NumSyncVars + d.NumDataVars); d.AddressRangeBytes/mem.WordSize < vars {
		return fmt.Errorf("core: AddressRangeBytes %d too small for %d variables of %d bytes",
			d.AddressRangeBytes, vars, mem.WordSize)
	}
	return nil
}

// TotalThreads returns the number of tester threads.
func (c Config) TotalThreads() int { return c.NumWavefronts * c.ThreadsPerWF }

// TotalActions returns the total number of memory operations the run
// will issue.
func (c Config) TotalActions() uint64 {
	return uint64(c.TotalThreads()) * uint64(c.EpisodesPerThread) * uint64(c.ActionsPerEpisode)
}
