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

// held is the set of claims eps holds on variable i.
func (s *claimShadow) held(i int, eps uint64) claimKind {
	var k claimKind
	if _, ok := s.readers[i][eps]; ok {
		k |= claimRead
	}
	if s.writer[i] == eps {
		k |= claimWrite
	}
	return k
}

// word is the claim word the shadow's claims on variable i encode to:
// the sole claimer's ID and kinds, multiRead for several readers, or 0.
func (s *claimShadow) word(i int) uint64 {
	if w := s.writer[i]; w != 0 {
		return w<<2 | uint64(s.held(i, w))
	}
	switch len(s.readers[i]) {
	case 0:
		return 0
	case 1:
		for r := range s.readers[i] {
			return r<<2 | uint64(claimRead)
		}
	}
	return multiRead
}

func (s *claimShadow) release(eps uint64) {
	for i := range s.writer {
		delete(s.readers[i], eps)
		if s.writer[i] == eps {
			s.writer[i] = 0
		}
	}
}

// recount checks every variable's claim fields, its claim word and the
// space's two counters against a full recount of the shadow.
func (s *claimShadow) recount(sp *addressSpace) error {
	free, unwritten := 0, 0
	for i := range sp.dataVars {
		v := &sp.dataVars[i]
		var sum uint64
		for r := range s.readers[i] {
			sum += r
		}
		if v.writer != s.writer[i] || int(v.readers) != len(s.readers[i]) || v.readerSum != sum {
			return fmt.Errorf("data variable %d: writer/readers/readerSum = %d/%d/%d, recount says %d/%d/%d",
				i, v.writer, v.readers, v.readerSum, s.writer[i], len(s.readers[i]), sum)
		}
		if got, want := sp.words[i], s.word(i); got != want {
			return fmt.Errorf("data variable %d: claim word %#x, the shadow encodes to %#x", i, got, want)
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
// the claim fields, claim words and counters equal a full recount. The 16- and
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
			for i := range sp.dataVars {
				index[&sp.dataVars[i]] = i
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
					oracle := tester.rnd
					want := shadow.pick(&oracle, ep.id, store)
					got := tester.pickData(ep, store)
					if (got == nil) != (want < 0) || (got != nil && index[got] != want) {
						t.Fatalf("vars=%d seed=%d step %d: pickData chose %v, plain sampler chose %d", numData, seed, step, got, want)
					}
					if tester.rnd != oracle {
						t.Fatalf("vars=%d seed=%d step %d: RNG state differs after pickData", numData, seed, step)
					}
				default:
					ep := freshEpisode(tester)
					live = append(live, ep)
					for n := drive.Intn(29); n > 0; n-- {
						if !sp.admitsAny(ep, true) || !sp.admitsAny(ep, false) {
							skipped++
						}
						calls++
						oracle := tester.rnd
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
						if tester.rnd != oracle {
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

// FuzzClaimWords drives the claim words directly: the input decodes as
// (episode, variable, kind, claim|release) steps over 6 episodes and 16
// data variables, applied through claim and release under the DRF rules
// (a claim the shadow does not admit, or a repeat of one held, is
// skipped). After every step each word must equal the shadow's
// encoding, both admissibility answers must match the shadow's for every
// episode and variable, and heldBy must name what each holder holds.
func FuzzClaimWords(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 3})
	f.Add([]byte{0, 3, 1, 0, 3, 0, 0, 3, 2, 0, 3, 3, 1, 3, 0, 1, 3, 2})
	f.Add([]byte{5, 15, 0, 4, 15, 0, 3, 15, 0, 4, 15, 2, 5, 15, 2, 3, 15, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		const numEps, numData = 6, 16
		sp := buildAddressSpace(rng.New(1, 1), 2, numData, 4*4*(2+numData), 64)
		shadow := newClaimShadow(numData)
		for len(in) >= 3 {
			eps, i, op := uint64(in[0]%numEps)+1, int(in[1]%numData), in[2]
			in = in[3:]
			v := &sp.dataVars[i]
			if op&2 != 0 {
				if held := shadow.held(i, eps); held != 0 {
					sp.release(v, eps, held)
					delete(shadow.readers[i], eps)
					if held&claimWrite != 0 {
						shadow.writer[i] = 0
					}
				}
			} else if store := op&1 != 0; store && shadow.canStore(i, eps) && shadow.writer[i] != eps {
				sp.claim(v, eps, claimWrite)
				shadow.writer[i] = eps
			} else if _, reads := shadow.readers[i][eps]; !store && shadow.canLoad(i, eps) && !reads {
				sp.claim(v, eps, claimRead)
				shadow.readers[i][eps] = struct{}{}
			}
			if err := shadow.recount(sp); err != nil {
				t.Fatal(err)
			}
			for j := range sp.dataVars {
				v := &sp.dataVars[j]
				for e := uint64(1); e <= numEps; e++ {
					if got, want := admits(sp.words[j], e, true), shadow.canStore(j, e); got != want {
						t.Fatalf("variable %d, episode %d: word %#x admits a store %v, the shadow says %v", j, e, sp.words[j], got, want)
					}
					if got, want := admits(sp.words[j], e, false), shadow.canLoad(j, e); got != want {
						t.Fatalf("variable %d, episode %d: word %#x admits a load %v, the shadow says %v", j, e, sp.words[j], got, want)
					}
					if held := shadow.held(j, e); held != 0 && v.heldBy(e) != held {
						t.Fatalf("variable %d, episode %d: heldBy says %d, the shadow %d", j, e, v.heldBy(e), held)
					}
				}
			}
		}
	})
}

// TestSamplerCountsPinned pins the generator's traffic counters for one
// small fixed config: they are exact, so any change to the sampler's
// draw sequence moves them. The 48-variable space saturates, so some
// calls find no admissible variable.
func TestSamplerCountsPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumWavefronts = 8
	cfg.EpisodesPerThread = 4
	cfg.ActionsPerEpisode = 30
	cfg.NumSyncVars = 4
	cfg.NumDataVars = 48
	k := sim.NewKernel()
	rep := New(k, viper.NewSystem(k, viper.SmallCacheConfig(), nil), cfg).Run()
	if !rep.Passed() {
		t.Fatalf("run failed: %v", rep.Failures)
	}
	want := SamplerStats{Calls: 4965, Draws: 10435, Empty: 1381}
	if rep.Sampler != want {
		t.Fatalf("sampler counters %+v, want %+v", rep.Sampler, want)
	}
}
