// Package rng provides a small, fast, deterministic random number
// generator used throughout the simulator and the testers.
//
// Determinism is a hard requirement of the testing methodology: the
// paper's debugging flow depends on being able to replay a failing run
// from its seed and observe the identical sequence of memory requests
// and protocol transitions. Every component therefore draws from its own
// PCG32 stream derived from a master seed, so adding randomness to one
// component never perturbs another.
package rng

// PCG implements the PCG32 (XSH-RR) generator of O'Neill. It is seeded
// with a state and a stream (sequence) selector; distinct streams are
// statistically independent.
type PCG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// New returns a generator seeded with seed on stream seq.
func New(seed, seq uint64) *PCG {
	p := &PCG{inc: seq<<1 | 1}
	p.Uint32()
	p.state += seed
	p.Uint32()
	return p
}

// State returns the generator's internal state and stream increment.
// Replay artifacts embed it so a reproduced run can be checked to have
// consumed the exact same randomness as the failing one.
func (p *PCG) State() (state, inc uint64) { return p.state, p.inc }

// Split derives a new independent generator from p. The derived stream
// is a pure function of p's current state, so splitting is itself
// deterministic.
func (p *PCG) Split() *PCG {
	return New(p.Uint64(), p.Uint64())
}

// Uint32 returns the next 32 random bits.
func (p *PCG) Uint32() uint32 {
	old := p.state
	p.state = old*pcgMult + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Skip advances the generator by n Uint32 steps without producing
// their outputs, in O(log n): n applications of the LCG step
// state = state*mult + inc compose into one affine map, built by
// repeated squaring (Brown's jump-ahead, as in the reference PCG
// advance). A caller that knows a run of draws cannot affect its
// result skips them and leaves the stream exactly where drawing them
// would have.
func (p *PCG) Skip(n uint64) {
	mult, plus := uint64(pcgMult), p.inc
	accMult, accPlus := uint64(1), uint64(0)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			accMult *= mult
			accPlus = accPlus*mult + plus
		}
		plus *= mult + 1
		mult *= mult
	}
	p.state = accMult*p.state + accPlus
}

// Uint64 returns the next 64 random bits.
func (p *PCG) Uint64() uint64 {
	return uint64(p.Uint32())<<32 | uint64(p.Uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. It draws
// one Uint64 — two steps — whatever n is, which callers that Skip in
// place of Intn calls rely on.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(p.Uint64() % uint64(n))
}

// Int63 returns a non-negative random int64.
func (p *PCG) Int63() int64 {
	return int64(p.Uint64() >> 1)
}

// Range returns a uniform int in [lo, hi]. It panics if hi < lo.
func (p *PCG) Range(lo, hi int) int {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + p.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability prob.
func (p *PCG) Bool(prob float64) bool {
	return p.Float64() < prob
}

// Perm returns a random permutation of [0, n).
func (p *PCG) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	p.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Shuffle pseudo-randomizes the order of n elements via swap.
func (p *PCG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, p.Intn(i+1))
	}
}

// WeightedChoice returns an index in [0, len(weights)) selected with
// probability proportional to its weight. Zero-weight entries are never
// chosen. It panics if the total weight is not positive.
func (p *PCG) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: non-positive total weight")
	}
	x := p.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("rng: unreachable")
}
