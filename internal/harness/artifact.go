package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/cputester"
	"drftest/internal/sim"
	"drftest/internal/trace"
	"drftest/internal/viper"
)

// ArtifactSchema is the replay artifact format version. Bump it on any
// incompatible change to the Artifact layout.
const ArtifactSchema = 1

// DefaultTraceCapacity is the execution-trace depth used when a run is
// recorded for replay and no explicit depth is given.
const DefaultTraceCapacity = 4096

// Artifact kinds.
const (
	ArtifactGPU = "gpu"
	ArtifactCPU = "cpu"
)

// ArtifactFailure is one detected bug in replay-comparable form: a
// reproduced run must match every field of the original's first
// failure.
type ArtifactFailure struct {
	Kind     string `json:"kind"`
	Tick     uint64 `json:"tick"`
	Addr     uint64 `json:"addr"`
	Expected uint32 `json:"expected"`
	Got      uint32 `json:"got"`
	Message  string `json:"message"`
}

// RNGState is a PCG stream's raw state, captured at end of run.
type RNGState struct {
	State uint64 `json:"state"`
	Inc   uint64 `json:"inc"`
}

// OpCounts are the run's work counters; a bit-identical replay matches
// all of them.
type OpCounts struct {
	Issued          uint64 `json:"issued"`
	Completed       uint64 `json:"completed"`
	EpisodesRetired uint64 `json:"episodesRetired,omitempty"`
	KernelEvents    uint64 `json:"kernelEvents"`
}

// GPUSetup is everything needed to rebuild a failing GPU tester run.
type GPUSetup struct {
	SysCfg  viper.Config `json:"sysCfg"`
	TestCfg core.Config  `json:"testCfg"`
}

// CPUSetup is everything needed to rebuild a failing CPU tester run.
type CPUSetup struct {
	NumCPUs  int              `json:"numCPUs"`
	CacheCfg cache.Config     `json:"cacheCfg"`
	TestCfg  cputester.Config `json:"testCfg"`
}

// Artifact is a serialized failing run: the complete configuration and
// seed (enough to re-execute it), plus the observables a replay is
// checked against — failures, op counts, final RNG state, and the tail
// of the execution trace.
type Artifact struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"` // ArtifactGPU or ArtifactCPU
	Seed   uint64 `json:"seed"`

	GPU *GPUSetup `json:"gpu,omitempty"`
	CPU *CPUSetup `json:"cpu,omitempty"`

	RNG RNGState `json:"rng"`
	Ops OpCounts `json:"ops"`

	// TraceCapacity is the ring depth the trace was recorded with;
	// replays use the same depth so tails compare entry-for-entry.
	TraceCapacity int           `json:"traceCapacity,omitempty"`
	Trace         []trace.Entry `json:"trace,omitempty"`

	Failures []ArtifactFailure `json:"failures"`

	// MinimizedFrom names the artifact file this one was minimized
	// from (Minimize): the trace is cut down to the shortest
	// reproducing suffix — entries from FirstFailingTick on — and
	// CheckReproduced compares it against the tail of a replay.
	// Both fields are additive, so the schema stays at 1: readers
	// without them see a plain (if short-traced) artifact.
	MinimizedFrom    string `json:"minimizedFrom,omitempty"`
	FirstFailingTick uint64 `json:"firstFailingTick,omitempty"`

	// Schedule pins a non-default event interleaving: one chosen event
	// sequence number per multi-candidate schedule choice point, in
	// execution order, as recorded by the bounded exhaustive explorer
	// (internal/explore). Replay attaches a sim.ScriptChooser built
	// from it, so the violating schedule re-executes bit-identically.
	// Additive like MinimizedFrom, so the schema stays at 1: readers
	// without it see a plain artifact (whose default-order replay would
	// simply not reproduce).
	Schedule []uint64 `json:"schedule,omitempty"`
}

// FirstFailure returns the artifact's first failure, the one a replay
// must reproduce.
func (a *Artifact) FirstFailure() ArtifactFailure {
	if len(a.Failures) == 0 {
		return ArtifactFailure{}
	}
	return a.Failures[0]
}

// NewGPUArtifact captures a finished (failing) GPU tester run. The
// ring may be nil when the run was not traced.
func NewGPUArtifact(sysCfg viper.Config, testCfg core.Config, tester *core.Tester, rep *core.Report, ring *trace.Ring) *Artifact {
	state, inc := tester.RNGState()
	return &Artifact{
		Schema: ArtifactSchema,
		Kind:   ArtifactGPU,
		Seed:   testCfg.Seed,
		GPU:    &GPUSetup{SysCfg: sysCfg, TestCfg: testCfg},
		RNG:    RNGState{State: state, Inc: inc},
		Ops: OpCounts{
			Issued:          rep.OpsIssued,
			Completed:       rep.OpsCompleted,
			EpisodesRetired: rep.EpisodesRetired,
			KernelEvents:    rep.EventsExecuted,
		},
		TraceCapacity: ring.Cap(),
		Trace:         ring.Entries(),
		Failures:      gpuFailures(rep.Failures),
	}
}

// NewCPUArtifact captures a finished (failing) CPU tester run.
func NewCPUArtifact(setup CPUSetup, tester *cputester.Tester, rep *cputester.Report, kernelEvents uint64, ring *trace.Ring) *Artifact {
	state, inc := tester.RNGState()
	return &Artifact{
		Schema: ArtifactSchema,
		Kind:   ArtifactCPU,
		Seed:   setup.TestCfg.Seed,
		CPU:    &setup,
		RNG:    RNGState{State: state, Inc: inc},
		Ops: OpCounts{
			Issued:       rep.OpsIssued,
			Completed:    rep.OpsCompleted,
			KernelEvents: kernelEvents,
		},
		TraceCapacity: ring.Cap(),
		Trace:         ring.Entries(),
		Failures:      cpuFailures(rep.Failures),
	}
}

func gpuFailures(fs []*core.Failure) []ArtifactFailure {
	out := make([]ArtifactFailure, 0, len(fs))
	for _, f := range fs {
		out = append(out, ArtifactFailure{
			Kind: f.Kind.String(), Tick: f.Tick, Addr: uint64(f.Addr),
			Expected: f.Expected, Got: f.Got, Message: f.Message,
		})
	}
	return out
}

func cpuFailures(fs []*cputester.Failure) []ArtifactFailure {
	out := make([]ArtifactFailure, 0, len(fs))
	for _, f := range fs {
		kind := "value-mismatch"
		if f.Deadlock {
			kind = "deadlock"
		}
		out = append(out, ArtifactFailure{
			Kind: kind, Tick: f.Tick, Addr: uint64(f.Addr),
			Expected: f.Expected, Got: f.Got, Message: f.Message,
		})
	}
	return out
}

// Encode serializes the artifact to its canonical on-disk form (the
// exact bytes Write produces). Because the encoding is deterministic,
// the bytes double as the artifact's identity in a content-addressed
// store: the same failing run always hashes to the same object.
func (a *Artifact) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Write serializes the artifact into dir (created if needed) under a
// deterministic name and returns the full path.
func (a *Artifact) Write(dir string) (string, error) {
	f := a.FirstFailure()
	return writeArtifactAs(a, dir, fmt.Sprintf("replay-%s-seed%d-tick%d.json", a.Kind, a.Seed, f.Tick))
}

// writeArtifactAs serializes a into dir (created if needed) under the
// given file name and returns the full path.
func writeArtifactAs(a *Artifact, dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := a.Encode()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadArtifact reads and validates an artifact file.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadArtifactBytes(path, data)
}

// LoadArtifactBytes parses and validates an artifact from its encoded
// form (a file's bytes, store objects, inline wire artifacts); path
// labels errors. A GPU artifact's run is admitted like any other
// (ValidateRun): an artifact is input from outside the process too.
func LoadArtifactBytes(path string, data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("artifact %s: %w", path, err)
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Errorf("artifact %s: schema %d, this build reads %d", path, a.Schema, ArtifactSchema)
	}
	switch a.Kind {
	case ArtifactGPU:
		if a.GPU == nil {
			return nil, fmt.Errorf("artifact %s: gpu kind without gpu setup", path)
		}
		if a.GPU.TestCfg.Seed != a.Seed {
			return nil, fmt.Errorf("artifact %s: seed %d disagrees with embedded tester seed %d", path, a.Seed, a.GPU.TestCfg.Seed)
		}
		if err := ValidateRun(a.GPU.SysCfg, a.GPU.TestCfg, a.TraceCapacity); err != nil {
			return nil, fmt.Errorf("artifact %s: %w", path, err)
		}
	case ArtifactCPU:
		if a.CPU == nil {
			return nil, fmt.Errorf("artifact %s: cpu kind without cpu setup", path)
		}
		if a.CPU.TestCfg.Seed != a.Seed {
			return nil, fmt.Errorf("artifact %s: seed %d disagrees with embedded tester seed %d", path, a.Seed, a.CPU.TestCfg.Seed)
		}
	default:
		return nil, fmt.Errorf("artifact %s: unknown kind %q", path, a.Kind)
	}
	return &a, nil
}

// Replay re-executes the artifact's run from its embedded
// configuration and returns a freshly captured artifact of the re-run,
// traced at the original's depth.
func Replay(a *Artifact) (*Artifact, error) {
	switch a.Kind {
	case ArtifactGPU:
		r := NewGPURun(a.GPU.SysCfg, a.GPU.TestCfg, true, a.TraceCapacity)
		var sc *sim.ScriptChooser
		if len(a.Schedule) > 0 {
			sc = sim.NewScriptChooser(a.Schedule)
			r.K.SetChooser(sc)
		}
		rep := r.Tester.Run()
		replayed := NewGPUArtifact(a.GPU.SysCfg, a.GPU.TestCfg, r.Tester, rep, r.Ring)
		if sc != nil {
			replayed.Schedule = a.Schedule
			if err := sc.Err(); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			if sc.Consumed() != len(a.Schedule) {
				return nil, fmt.Errorf("replay: schedule diverged: consumed %d of %d recorded choices", sc.Consumed(), len(a.Schedule))
			}
		}
		return replayed, nil
	case ArtifactCPU:
		b := BuildCPU(a.CPU.NumCPUs, a.CPU.CacheCfg)
		ring := EnableTrace(b.K, a.TraceCapacity)
		tester := cputester.New(b.K, b.Caches, a.CPU.TestCfg)
		rep := tester.Run()
		return NewCPUArtifact(*a.CPU, tester, rep, b.K.Executed(), ring), nil
	default:
		return nil, fmt.Errorf("replay: unknown artifact kind %q", a.Kind)
	}
}

// CheckReproduced verifies that replayed reproduces orig bit-
// identically: same first failure (kind, tick, address, values,
// message), same op counts, same final RNG state, and — when the
// original embedded a trace at the same depth — the same trace tail.
// A nil return means the failure reproduced.
func CheckReproduced(orig, replayed *Artifact) error {
	if len(orig.Failures) == 0 {
		return fmt.Errorf("original artifact has no failure to reproduce")
	}
	if len(replayed.Failures) == 0 {
		return fmt.Errorf("replay found no failure (original: %s at tick %d)",
			orig.FirstFailure().Kind, orig.FirstFailure().Tick)
	}
	of, rf := orig.FirstFailure(), replayed.FirstFailure()
	if of != rf {
		return fmt.Errorf("replay failure diverged:\n  original: %+v\n  replay:   %+v", of, rf)
	}
	if orig.Ops != replayed.Ops {
		return fmt.Errorf("replay op counts diverged: original %+v, replay %+v", orig.Ops, replayed.Ops)
	}
	if orig.RNG != (RNGState{}) && orig.RNG != replayed.RNG {
		return fmt.Errorf("replay RNG state diverged: original %+v, replay %+v", orig.RNG, replayed.RNG)
	}
	if len(orig.Trace) > 0 && orig.TraceCapacity == replayed.TraceCapacity {
		rt := replayed.Trace
		if orig.MinimizedFrom != "" {
			// A minimized artifact holds only the failing suffix of the
			// original trace; the replay re-records the full ring tail,
			// so it reproduces when the suffixes agree.
			if len(rt) < len(orig.Trace) {
				return fmt.Errorf("replay trace shorter than minimized suffix: %d vs %d entries", len(rt), len(orig.Trace))
			}
			rt = rt[len(rt)-len(orig.Trace):]
		} else if len(orig.Trace) != len(rt) {
			return fmt.Errorf("replay trace length diverged: %d vs %d entries", len(orig.Trace), len(rt))
		}
		for i := range orig.Trace {
			if orig.Trace[i] != rt[i] {
				return fmt.Errorf("replay trace diverged at entry %d:\n  original: %+v\n  replay:   %+v",
					i, orig.Trace[i], rt[i])
			}
		}
	}
	return nil
}
