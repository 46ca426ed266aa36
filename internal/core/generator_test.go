package core

import (
	"fmt"
	"testing"
	"unsafe"

	"drftest/internal/rng"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// TestVariableSize pins the slab entry at one cache line of the host:
// a space is rebuilt per seed and snapshotted per cut, so every word
// here is paid NumDataVars times over.
func TestVariableSize(t *testing.T) {
	if got := unsafe.Sizeof(variable{}); got > 64 {
		t.Fatalf("variable is %d bytes, want ≤ 64", got)
	}
}

// claimShadow is the generator oracle's view of the claims: the plain
// representation the product's counts and sums replaced — a set of
// reading episodes and a writer per data variable, no counters.
type claimShadow struct {
	readers []map[uint64]struct{} // by index in dataVars
	writer  []uint64
}

func newClaimShadow(numData int) *claimShadow {
	s := &claimShadow{readers: make([]map[uint64]struct{}, numData), writer: make([]uint64, numData)}
	for i := range s.readers {
		s.readers[i] = map[uint64]struct{}{}
	}
	return s
}

func (s *claimShadow) canLoad(i int, eps uint64) bool {
	return s.writer[i] == 0 || s.writer[i] == eps
}

func (s *claimShadow) canStore(i int, eps uint64) bool {
	if !s.canLoad(i, eps) {
		return false
	}
	for r := range s.readers[i] {
		if r != eps {
			return false
		}
	}
	return true
}

// pick is the plain rejection sampler: 64 tries, every one drawn.
func (s *claimShadow) pick(rnd *rng.PCG, eps uint64, store bool) int {
	for try := 0; try < 64; try++ {
		i := rnd.Intn(len(s.writer))
		if store && s.canStore(i, eps) || !store && s.canLoad(i, eps) {
			return i
		}
	}
	return -1
}

// genDataOp is the oracle generator: sample the wanted kind, then the
// other, then scan for anything loadable, else degrade to an atomic.
// It returns the chosen data variable's index (-1 for the atomic) and
// the op kind, and records the claim.
func (s *claimShadow) genDataOp(rnd *rng.PCG, eps uint64, storeFraction float64) (int, opKind) {
	want := rnd.Bool(storeFraction)
	i, store := s.pick(rnd, eps, want), want
	if i < 0 {
		i, store = s.pick(rnd, eps, !want), !want
	}
	if i < 0 {
		store = false
		for j := range s.writer {
			if s.canLoad(j, eps) {
				i = j
				break
			}
		}
	}
	switch {
	case i < 0:
		return -1, opExtra
	case store:
		s.writer[i] = eps
		return i, opStore
	}
	s.readers[i][eps] = struct{}{}
	return i, opLoad
}

func (s *claimShadow) release(eps uint64) {
	for i := range s.writer {
		delete(s.readers[i], eps)
		if s.writer[i] == eps {
			s.writer[i] = 0
		}
	}
}

// recount checks every variable's claim fields and the space's two
// counters against a full recount of the shadow.
func (s *claimShadow) recount(sp *addressSpace) error {
	free, unwritten := 0, 0
	for i, v := range sp.dataVars {
		var sum uint64
		for r := range s.readers[i] {
			sum += r
		}
		if v.writer != s.writer[i] || int(v.readers) != len(s.readers[i]) || v.readerSum != sum {
			return fmt.Errorf("data variable %d: writer/readers/readerSum = %d/%d/%d, recount says %d/%d/%d",
				i, v.writer, v.readers, v.readerSum, s.writer[i], len(s.readers[i]), sum)
		}
		if s.writer[i] == 0 {
			unwritten++
			if len(s.readers[i]) == 0 {
				free++
			}
		}
	}
	if sp.free != free || sp.unwritten != unwritten {
		return fmt.Errorf("free/unwritten = %d/%d, recount says %d/%d", sp.free, sp.unwritten, free, unwritten)
	}
	return nil
}

// TestGeneratorMatchesPlainSampler is the differential test behind the
// generator's shortcuts (exact claim counts, the candidate-existence
// test, the RNG jump-ahead, the guarded linear scan): over random
// interleavings of episode creation, data-op generation and
// retirement, the product picks the same variable with the same op
// kind as the plain sampler over a map-of-sets shadow, and leaves the
// RNG in the same state, after every single call; and after every step
// the claim fields and counters equal a full recount. The 16- and
// 64-variable spaces saturate (most calls face no candidate); the
// 4 096-variable one never does.
func TestGeneratorMatchesPlainSampler(t *testing.T) {
	for _, numData := range []int{16, 64, 4096} {
		for seed := uint64(1); seed <= 6; seed++ {
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.ActionsPerEpisode = 2 // newEpisode generates no data op: the test drives genDataOp itself
			cfg.NumSyncVars = 3
			cfg.NumDataVars = numData
			cfg.StoreFraction = 0.6
			k := sim.NewKernel()
			tester := New(k, viper.NewSystem(k, viper.SmallCacheConfig(), nil), cfg)
			sp := tester.space
			index := make(map[*variable]int, numData)
			for i, v := range sp.dataVars {
				index[v] = i
			}
			shadow := newClaimShadow(numData)
			var skipped, calls int

			drive := rng.New(seed, 0x0D1F)
			var live []*episode
			for step := 0; step < 600; step++ {
				switch {
				case len(live) > 0 && (len(live) == 32 || drive.Bool(0.3)):
					i := drive.Intn(len(live))
					ep := live[i]
					live = append(live[:i], live[i+1:]...)
					shadow.release(ep.id)
					tester.retire(&thread{}, ep)
				case len(live) > 0 && drive.Bool(0.1):
					// A bare sampling call: no claim, only the stream moves.
					ep, store := live[drive.Intn(len(live))], drive.Bool(0.5)
					oracle := *tester.rnd
					want := shadow.pick(&oracle, ep.id, store)
					got := tester.pickData(ep, store)
					if (got == nil) != (want < 0) || (got != nil && index[got] != want) {
						t.Fatalf("vars=%d seed=%d step %d: pickData chose %v, plain sampler chose %d", numData, seed, step, got, want)
					}
					if *tester.rnd != oracle {
						t.Fatalf("vars=%d seed=%d step %d: RNG state differs after pickData", numData, seed, step)
					}
				default:
					ep := tester.newEpisode()
					live = append(live, ep)
					for n := drive.Intn(29); n > 0; n-- {
						if !sp.admitsAny(ep, true) || !sp.admitsAny(ep, false) {
							skipped++
						}
						calls++
						oracle := *tester.rnd
						wantVar, wantKind := shadow.genDataOp(&oracle, ep.id, cfg.StoreFraction)
						op := tester.genDataOp(ep)
						gotVar := -1
						if op.kind != opExtra {
							gotVar = index[op.v]
						} else if op.v != ep.sync {
							t.Fatalf("vars=%d seed=%d step %d: fallback atomic not on the episode's sync variable", numData, seed, step)
						}
						if gotVar != wantVar || op.kind != wantKind {
							t.Fatalf("vars=%d seed=%d step %d: generated %s of data variable %d, plain sampler %s of %d",
								numData, seed, step, opNames[op.kind], gotVar, opNames[wantKind], wantVar)
						}
						if *tester.rnd != oracle {
							t.Fatalf("vars=%d seed=%d step %d: RNG state differs after genDataOp", numData, seed, step)
						}
					}
				}
				if err := shadow.recount(sp); err != nil {
					t.Fatalf("vars=%d seed=%d step %d: %v", numData, seed, step, err)
				}
			}
			// The test means nothing unless the small spaces exercise
			// the no-candidate path and the large one the sampling path.
			if saturates := numData <= 64; saturates != (skipped*4 > calls) {
				t.Fatalf("vars=%d seed=%d: %d of %d generator calls faced a kind with no candidate", numData, seed, skipped, calls)
			}
		}
	}
}
