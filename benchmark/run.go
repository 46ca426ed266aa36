package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// setupProbes is how many fresh set-ups setup_s is the median of.
const setupProbes = 21

// childTimeout bounds one child run; a timeout counts as failed ops.
const childTimeout = 150 * time.Second

// roundTime is the host cost of one round's run phase.
type roundTime struct {
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
}

// timedResult is what the timed child reports: per-round host times,
// the (identical) round statistics, and the Go heap's view of the run
// phases.
type timedResult struct {
	Rounds     []roundTime `json:"rounds"`
	Stats      roundStats  `json:"stats"`
	Mallocs    uint64      `json:"mallocs"`
	AllocBytes uint64      `json:"alloc_bytes"`
}

// auxResult is what the set-up child reports: the fresh set-up times
// and the workload's untimed extra checks.
type auxResult struct {
	SetupS []float64  `json:"setup_s"`
	Stats  roundStats `json:"stats"`
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// minRounds is the fewest rounds a timed run makes however slow they are.
const minRounds = 5

// runTimed makes rounds of w — each a fresh set-up, then the timed run —
// until their run phases add up to p.Seconds. Rounds are the same fixed
// work, so their digests must agree, and how many fit in the time does
// not change any simulated statistic.
func runTimed(w *workload, p params) timedResult {
	var res timedResult
	var before, after runtime.MemStats
	var measured time.Duration
	for r := 0; r < minRounds || measured.Seconds() < p.Seconds; r++ {
		inst := w.setup(p)
		runtime.GC()
		runtime.ReadMemStats(&before)
		cpu0, t0 := selfCPU(), time.Now()
		rs := inst.run()
		wall, cpu := time.Since(t0), selfCPU()-cpu0
		runtime.ReadMemStats(&after)
		inst.close()

		measured += wall
		res.Rounds = append(res.Rounds, roundTime{WallS: wall.Seconds(), CPUS: cpu.Seconds()})
		res.Mallocs += after.Mallocs - before.Mallocs
		res.AllocBytes += after.TotalAlloc - before.TotalAlloc
		if r == 0 {
			res.Stats = rs
			continue
		}
		res.Stats.Checks += rs.Checks
		res.Stats.Failed = append(res.Stats.Failed, rs.Failed...)
		same := reflect.DeepEqual(rs.Digest, res.Stats.Digest) && rs.Canon == res.Stats.Canon
		res.Stats.check(same, "round %d digest %v differs from round 0 digest %v", r, rs.Digest, res.Stats.Digest)
	}
	return res
}

// runAux times the fresh set-ups and runs the untimed extra checks.
func runAux(w *workload, p params) auxResult {
	var res auxResult
	for i := 0; i < setupProbes; i++ {
		t0 := time.Now()
		cleanup := w.probe(p)
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		if cleanup != nil {
			cleanup()
		}
	}
	if w.aux != nil {
		w.aux(p, &res.Stats)
	}
	return res
}

// childMain is the re-exec'd side: one mode, one workload, one JSON
// result on standard output.
func childMain(mode string, w *workload, p params, spans string) error {
	runtime.GOMAXPROCS(benchProcs)
	var out any
	switch mode {
	case "timed":
		out = runTimed(w, p)
	case "aux":
		out = runAux(w, p)
	case "traced":
		res, err := runTraced(w, p, spans)
		if err != nil {
			return err
		}
		out = res
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// childUsage is what wait4 says about a finished child.
type childUsage struct {
	CPUS      float64
	PeakRSSMB float64
}

// spawn re-executes this binary as a child, one at a time, so every run
// starts on a fresh heap, and decodes its result into out.
func spawn(mode string, w *workload, p params, spans string, out any) (childUsage, error) {
	exe, err := os.Executable()
	if err != nil {
		return childUsage{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{
		"-child", mode, "-workload", w.Name,
		"-seed", strconv.FormatUint(p.Seed, 10),
		"-seconds", strconv.FormatFloat(p.Seconds, 'g', -1, 64),
		"-factor", strconv.FormatFloat(p.Factor, 'g', -1, 64),
	}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	if ctx.Err() != nil {
		return childUsage{}, fmt.Errorf("%s child of %s exceeded %v", mode, w.Name, childTimeout)
	}
	if err != nil {
		return childUsage{}, fmt.Errorf("%s child of %s: %w", mode, w.Name, err)
	}
	var usage childUsage
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		usage.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		usage.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return usage, fmt.Errorf("%s child of %s: decoding result: %w", mode, w.Name, err)
	}
	return usage, nil
}
