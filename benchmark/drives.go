package main

import (
	"sort"
	"time"

	"drftest/internal/cache"
	"drftest/internal/checker"
	"drftest/internal/core"
	"drftest/internal/coverage"
	"drftest/internal/harness"
	"drftest/internal/mem"
	"drftest/internal/protocol"
	"drftest/internal/rng"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// Technique T4: isolated drives of one layer's public API on
// workload-shaped input (the workload's cache geometry, address range
// and recorded trace). They are upper-bound costs in isolation and are
// not expected to sum to the run phase.

// layers collects per-layer metric values by name.
type layers map[string]float64

// driveReps is how many times a drive repeats; it reports the median.
const driveReps = 9

// medianOf times fn driveReps times, calling prep (untimed) before each.
func medianOf(prep, fn func()) time.Duration {
	times := make([]float64, driveReps)
	for i := range times {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		times[i] = float64(time.Since(t0))
	}
	return time.Duration(median(times))
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// addressStream returns n word addresses spread over [0, span), the way
// the tester's random variable mapping spreads them.
func addressStream(seed uint64, span uint64, n int) []mem.Addr {
	r := rng.New(seed, 0xD21)
	out := make([]mem.Addr, n)
	for i := range out {
		out[i] = mem.Addr(r.Uint64() % (span / mem.WordSize) * mem.WordSize)
	}
	return out
}

// commonDrives measures the layers every workload runs over: the event
// loop, the cache array, the backing store and coverage recording.
// depth is the event-queue depth the loop drive keeps.
func commonDrives(l layers, sys viper.Config, span uint64, depth int) {
	const streamLen = 1 << 16
	addrs := addressStream(1, span, streamLen)

	// sim: empty events through Schedule+Run at the workload's depth.
	{
		const events = 1 << 18
		d := medianOf(nil, func() {
			k := sim.NewKernel()
			left := events
			var tick func()
			tick = func() {
				if left > 0 {
					left--
					k.Schedule(1, tick)
				}
			}
			for i := 0; i < depth; i++ {
				k.Schedule(1, tick)
			}
			k.RunUntilIdle()
		})
		l["sim.loop_ns_per_event"] = float64(d) / float64(events+depth)
	}

	// cache: the lookup/miss path on the L1 geometry, the whole-array
	// scans and copies on each level's own geometry (acquires flash the
	// L1; the end-of-run audit walks the L2).
	fill := func(a *cache.Array) (misses int) {
		for _, addr := range addrs {
			if a.Lookup(addr) == nil {
				if way := a.Victim(addr, nil); way != nil {
					a.Install(way, addr, 1)
					misses++
				}
			}
		}
		return misses
	}
	l1, l2 := cache.NewArray(sys.L1), cache.NewArray(sys.L2)
	fill(l1)
	fill(l2)
	warm := medianOf(nil, func() {
		for _, addr := range addrs {
			l1.Lookup(addr)
		}
	})
	// From empty, every line's first touch is a miss the array must
	// find a victim for and install.
	var misses int
	cold := medianOf(l1.Reset, func() { misses = fill(l1) })
	l["cache.lookup_ns"] = float64(warm) / streamLen
	l["cache.install_ns"] = float64(max(cold-warm, 0)) / float64(max(misses, 1))
	l["cache.flash_invalidate_us"] = micros(medianOf(func() { fill(l1) }, func() {
		l1.FlashInvalidate(func(*cache.Line) bool { return true })
	}))
	l["cache.for_each_valid_us"] = micros(medianOf(nil, func() { l2.ForEachValid(func(*cache.Line) {}) }))
	var snap *cache.ArraySnapshot
	l["cache.snapshot_us"] = micros(medianOf(nil, func() { snap = l2.Snapshot() }))
	l["cache.restore_us"] = micros(medianOf(func() { fill(l2) }, func() { l2.Restore(snap) }))
	l["cache.reset_us"] = micros(medianOf(func() { fill(l2) }, l2.Reset))

	// mem: word reads, writes and atomics over the address range, and a
	// snapshot/restore around one more pass of them.
	{
		st := mem.NewStore()
		d := medianOf(nil, func() {
			for i, addr := range addrs {
				switch i % 3 {
				case 0:
					st.WriteWord(addr, uint32(i))
				case 1:
					st.ReadWord(addr)
				default:
					st.AtomicAdd(addr, 1)
				}
			}
		})
		l["mem.store_ns_per_access"] = float64(d) / streamLen
		touch := func() {
			for i, addr := range addrs {
				st.WriteWord(addr, uint32(i))
			}
		}
		var snap *mem.StoreSnapshot
		l["mem.snapshot_us"] = micros(medianOf(touch, func() { snap = st.Snapshot() }))
		l["mem.restore_us"] = micros(medianOf(touch, func() { st.Restore(snap) }))
	}

	// coverage: one transition recorded through the collector, and one
	// batch's L1 matrix merged into a union.
	{
		spec := viper.NewTCPSpec()
		col := coverage.NewCollector(spec)
		const fires = 1 << 16
		d := medianOf(nil, func() {
			for i := 0; i < fires; i++ {
				col.Record(spec.Name, i%len(spec.States), i%len(spec.Events), protocol.Defined)
			}
		})
		l["coverage.record_ns"] = float64(d) / fires
		union := coverage.NewMatrix(spec)
		l["coverage.merge_us"] = micros(medianOf(nil, func() { union.MergeCountNew(col.Matrix(spec.Name)) }))
	}
}

// testerDrives measures what a tester-driven GPU system pays outside its
// event loop: building, checkpointing, resetting, forking, auditing and
// axiomatic checking, for one run of test over sys.
func testerDrives(l layers, sys viper.Config, test core.Config) {
	test.RecordTrace = true

	var b *harness.GPUBuild
	var t *core.Tester
	l["harness.build_gpu_s"] = medianOf(nil, func() { b = harness.BuildGPU(sys) }).Seconds()
	l["core.new_s"] = medianOf(func() { b = harness.BuildGPU(sys) }, func() { t = core.New(b.K, b.Sys, test) }).Seconds()

	// One full run tells where the middle is, records the execution for
	// the checker drives and leaves a finished tester to audit.
	rep := t.Run()
	l["core.audit_store_us"] = micros(medianOf(nil, func() { t.AuditStore(b.Sys.Mem.Store()) }))
	ops := float64(max(len(rep.Trace.Ops), 1))
	l["checker.stream_ns_per_op"] = float64(medianOf(nil, func() { checker.Verify(rep.Trace) })) / ops
	l["checker.posthoc_ns_per_op"] = float64(medianOf(nil, func() { checker.VerifyPostHoc(rep.Trace) })) / ops
	half := halfStream(rep.Trace)
	l["checker.snapshot_us"] = micros(medianOf(nil, func() { half.Snapshot() }))

	// A fresh system warmed to mid-run, cut there.
	b = harness.BuildGPU(sys)
	b.Sys.EnableCheckpointing()
	t = core.New(b.K, b.Sys, test)
	t.Start()
	b.K.Run(sim.Tick(rep.SimTicks / 2))
	var ks *sim.KernelSnapshot
	var ss *viper.SystemSnapshot
	var ts *core.TesterSnapshot
	l["sim.snapshot_us"] = micros(medianOf(nil, func() { ks = b.K.Snapshot() }))
	l["viper.snapshot_us"] = micros(medianOf(nil, func() { ss = b.Sys.Snapshot() }))
	l["core.snapshot_us"] = micros(medianOf(nil, func() { ts = t.Snapshot() }))

	// Restores undo what the run did since the cut, so each repetition
	// first runs a twentieth of the run past it; resets start from the
	// cut. The layers go in the order the harness uses.
	step := sim.Tick(rep.SimTicks/20 + 1)
	var restore, reset [3][]float64
	lap := func(into *[3][]float64, fns ...func()) {
		for i, fn := range fns {
			t0 := time.Now()
			fn()
			into[i] = append(into[i], float64(time.Since(t0)))
		}
	}
	rewind := []func(){func() { b.K.Restore(ks) }, func() { b.Sys.Restore(ss) }, func() { t.Restore(ts) }}
	for i := 0; i < driveReps; i++ {
		b.K.Run(b.K.Now() + step)
		lap(&restore, rewind...)
		lap(&reset, b.K.Reset, b.Sys.Reset, func() { t.Reset(test.Seed) })
		for _, fn := range rewind {
			fn()
		}
	}
	for i, layer := range []string{"sim", "viper", "core"} {
		l[layer+".restore_us"] = micros(time.Duration(median(restore[i])))
		l[layer+".reset_us"] = micros(time.Duration(median(reset[i])))
	}

	// Fork: a clean-point snapshot, then rearm from it after each run,
	// as RunContext.RunSeed does on the fork path.
	b.K.Reset()
	b.Sys.Reset()
	b.Col.Reset()
	t.Reset(test.Seed)
	clean := b.Sys.Snapshot()
	l["core.fork_us"] = micros(medianOf(func() { t.Run() }, func() { t.Fork(test.Seed, []*viper.SystemSnapshot{clean}) }))
}

// halfStream folds the first half of tr into a checker.Stream, in the
// order checker.Verify feeds one.
func halfStream(tr *checker.Trace) *checker.Stream {
	s := checker.NewStream(tr.AtomicDelta)
	metas := make(map[uint64]*checker.EpisodeMeta, len(tr.Episodes))
	byCreate := make([]*checker.EpisodeMeta, 0, len(tr.Episodes))
	var retires []*checker.EpisodeMeta
	for i := range tr.Episodes {
		m := &tr.Episodes[i]
		metas[m.ID] = m
		byCreate = append(byCreate, m)
		if m.RetireSeq != 0 {
			retires = append(retires, m)
		}
	}
	sort.Slice(byCreate, func(i, j int) bool { return byCreate[i].CreateSeq < byCreate[j].CreateSeq })
	sort.Slice(retires, func(i, j int) bool { return retires[i].RetireSeq < retires[j].RetireSeq })
	for _, m := range byCreate {
		s.BeginEpisode(m.ID, m.CreateSeq)
	}
	ri := 0
	for _, op := range tr.Ops[:len(tr.Ops)/2] {
		if m := metas[op.Episode]; m != nil {
			for ri < len(retires) && retires[ri].RetireSeq < m.CreateSeq {
				s.RetireEpisode(retires[ri].ID, retires[ri].RetireSeq)
				ri++
			}
		}
		s.Observe(op)
	}
	return s
}
