// Coverage-directed and swarm campaign policy: the layer that closes
// the loop from the live coverage union back into seed generation.
//
// PR 4's campaign engine draws every seed from one fixed configuration,
// so the tail of cold [state][event] cells is reached only by luck. The
// fix, following the swarm-testing observation that configuration
// diversity is what buys tail coverage cheaply, is to deal each *batch*
// a configuration corner:
//
//   - Swarm mode samples a corner uniformly per batch from a small
//     lattice of axes — atomic intensity (NumSyncVars/StoreFraction),
//     locality (AddressRangeBytes/NumDataVars), scale
//     (NumWavefronts/ThreadsPerWF), and response-network jitter — each
//     with three levels anchored at the campaign's base configuration.
//   - Directed mode keeps the same lattice but weights the per-axis
//     level choice by an exponentially-decayed credit score: at every
//     batch barrier the merged union is asked which cold cells the
//     batch just activated (coverage.MergeCountNewFunc /
//     coverage.Matrix.ColdCells), and the batch's corner levels are
//     credited with that count. Corners whose recent batches bought
//     cold cells are sampled more; unproductive levels decay back
//     toward uniform exploration.
//
// Determinism: every policy decision happens at a batch boundary and is
// a pure function of (BaseSeed, batch index, union history). The corner
// for batch b is drawn from the dedicated PCG stream cornerStream+b
// seeded with BaseSeed, and the credit scores evolve only from the
// per-batch newly-activated-cell counts — which are set properties of
// the batch (worker-count independent) — so the whole campaign outcome
// remains independent of the worker count, exactly as in uniform mode
// (pinned by TestDirectedCampaignDeterministic across workers 1/3/8).
package harness

import (
	"fmt"
	"strings"

	"drftest/internal/core"
	"drftest/internal/mem"
	"drftest/internal/rng"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// CampaignMode selects how a campaign deals test configurations to
// batches.
type CampaignMode int

const (
	// CampaignUniform runs every seed at the campaign's base
	// configuration — the pre-swarm baseline every comparison is made
	// against.
	CampaignUniform CampaignMode = iota
	// CampaignSwarm deals every batch a configuration corner sampled
	// uniformly from the lattice.
	CampaignSwarm
	// CampaignDirected biases corner sampling toward corners whose
	// recent batches activated cold coverage cells.
	CampaignDirected
)

func (m CampaignMode) String() string {
	switch m {
	case CampaignUniform:
		return "uniform"
	case CampaignSwarm:
		return "swarm"
	case CampaignDirected:
		return "directed"
	}
	return fmt.Sprintf("CampaignMode(%d)", int(m))
}

// ParseCampaignMode parses the -campaign-mode flag values.
func ParseCampaignMode(s string) (CampaignMode, error) {
	switch s {
	case "uniform", "":
		return CampaignUniform, nil
	case "swarm":
		return CampaignSwarm, nil
	case "directed":
		return CampaignDirected, nil
	}
	return CampaignUniform, fmt.Errorf("unknown campaign mode %q (want uniform, swarm or directed)", s)
}

// The corner lattice: four axes, three levels each, level 0 always the
// campaign's base configuration. Axes were chosen for the transition
// cells they plausibly buy: atomic intensity drives the A-state rows,
// locality drives false sharing and replacement, scale drives
// stall/race interleavings, jitter drives response reordering.
const (
	axisAtomics = iota
	axisLocality
	axisScale
	axisJitter
	numAxes
)

const levelsPerAxis = 3

// NumCornerAxes is the lattice's axis count; CornerLevels is the wire
// form of a corner — the per-axis level vector a control-plane lease
// carries, from which any worker process reconstructs the identical
// corner (makeCorner is a pure function of the campaign base configs
// and the levels).
const NumCornerAxes = numAxes

// CornerLevels is a corner's per-axis level vector.
type CornerLevels = [NumCornerAxes]int

var axisNames = [numAxes]string{"atomics", "locality", "scale", "jitter"}

var levelNames = [numAxes][levelsPerAxis]string{
	{"base", "hot", "spread"},
	{"base", "tight", "wide"},
	{"base", "narrow", "wide"},
	{"base", "off", "wide"},
}

// Corner is one point of the swarm lattice: a level per axis, plus the
// base configuration with those levels' overrides applied. Corners are
// interned per campaign (cornerPolicy.get), so workers can compare
// corner identity by pointer and skip the reconfigure path when
// consecutive batches share a corner.
type Corner struct {
	Levels [numAxes]int

	// TestCfg is the campaign's base tester config with the corner's
	// overrides applied; Seed is set per run by the worker.
	TestCfg core.Config
	// RespJitter overrides the system's response-network jitter window
	// for this corner; JitterPerSeed additionally reseeds the jitter
	// stream with the run seed, so every seed of a jittered batch
	// explores a different reordering (the seed lands in the replay
	// artifact's SysCfg, keeping failures bit-reproducible).
	RespJitter    sim.Tick
	JitterPerSeed bool
}

// Name renders the corner compactly, e.g.
// "atomics=hot,locality=base,scale=wide,jitter=off".
func (c *Corner) Name() string {
	parts := make([]string, numAxes)
	for a := 0; a < numAxes; a++ {
		parts[a] = axisNames[a] + "=" + levelNames[a][c.Levels[a]]
	}
	return strings.Join(parts, ",")
}

// makeCorner derives a corner's configuration from the campaign base.
// Level 0 of every axis leaves the base untouched, so the all-zero
// corner is exactly the uniform campaign's configuration.
func makeCorner(testCfg core.Config, sysCfg viper.Config, levels [numAxes]int) *Corner {
	c := &Corner{Levels: levels, TestCfg: testCfg, RespJitter: sysCfg.RespJitter}

	switch levels[axisAtomics] {
	case 1: // hot: few heavily contended sync vars, store-heavy episodes
		c.TestCfg.NumSyncVars = max(1, testCfg.NumSyncVars/4)
		c.TestCfg.StoreFraction = 0.8
	case 2: // spread: many sync vars, load-heavy episodes
		c.TestCfg.NumSyncVars = testCfg.NumSyncVars * 4
		c.TestCfg.StoreFraction = 0.25
	}

	switch levels[axisLocality] {
	case 1: // tight: few data vars packed almost as densely as possible
		c.TestCfg.NumDataVars = max(8, testCfg.NumDataVars/8)
	case 2: // wide: many data vars spread over a sparse range
		c.TestCfg.NumDataVars = testCfg.NumDataVars * 4
	}
	// The address range tracks the corner's variable counts: tight packs
	// variables at 1.25× their footprint (maximal false sharing), wide
	// spreads them at 8×, and base defers to the config default (2×).
	total := uint64(c.TestCfg.NumSyncVars + c.TestCfg.NumDataVars)
	switch levels[axisLocality] {
	case 1:
		c.TestCfg.AddressRangeBytes = total * mem.WordSize * 5 / 4
	case 2:
		c.TestCfg.AddressRangeBytes = total * mem.WordSize * 8
	default:
		if testCfg.AddressRangeBytes == 0 {
			c.TestCfg.AddressRangeBytes = 0 // recomputed by withDefaults from the corner's counts
		}
	}

	switch levels[axisScale] {
	case 1: // narrow: fewer, thinner wavefronts — long quiet stretches
		c.TestCfg.NumWavefronts = max(1, testCfg.NumWavefronts/2)
		c.TestCfg.ThreadsPerWF = max(2, testCfg.ThreadsPerWF/2)
	case 2: // wide: more, fatter wavefronts — maximal concurrency
		c.TestCfg.NumWavefronts = testCfg.NumWavefronts * 2
		c.TestCfg.ThreadsPerWF = testCfg.ThreadsPerWF * 2
	}

	switch levels[axisJitter] {
	case 1: // off: strictly ordered responses
		c.RespJitter = 0
	case 2: // wide: aggressive response reordering, reseeded per run
		c.RespJitter = max(8, 2*sysCfg.RespJitter)
		c.JitterPerSeed = true
	}
	return c
}

// ValidateCorners reports the first corner of the lattice whose tester
// config valid refuses, or nil: an explicit address range that fits the
// base can be too small for a corner with more variables, and a count
// within bounds at the base can be out of them at four times that.
func ValidateCorners(testCfg core.Config, sysCfg viper.Config, valid func(core.Config) error) error {
	var levels [numAxes]int
	for {
		c := makeCorner(testCfg, sysCfg, levels)
		if err := valid(c.TestCfg); err != nil {
			return fmt.Errorf("corner %s: %w", c.Name(), err)
		}
		// Next corner: count up in base levelsPerAxis, done on wrap.
		a := 0
		for ; a < numAxes && levels[a] == levelsPerAxis-1; a++ {
			levels[a] = 0
		}
		if a == numAxes {
			return nil
		}
		levels[a]++
	}
}

// cornerStream is the PCG stream selector of corner sampling: batch b
// draws its corner from a generator seeded with BaseSeed advanced by b
// golden-ratio steps (the Weyl-sequence trick, so nearby batches are
// decorrelated from the very first draw — nearby PCG *streams* share
// their early outputs). The choice is a pure function of (BaseSeed, b,
// scores) with no state shared with any other randomness in the system.
const (
	cornerStream = 0xC057A
	cornerStep   = 0x9E3779B97F4A7C15
)

// cornerDecay is the per-batch exponential decay of directed-mode
// credit: a level's score halves every batch it is not re-credited, so
// the policy tracks *recent* productivity and re-explores once a
// corner's cold-cell yield dries up.
const cornerDecay = 0.5

// CornerCache interns corners per (testCfg, sysCfg) base, so equal
// level vectors always yield the same *Corner and run contexts can
// pointer-compare to skip the reconfigure path when consecutive
// batches share a corner. Worker processes keep one per campaign to
// reconstruct corners from lease level vectors.
type CornerCache struct {
	testCfg core.Config
	sysCfg  viper.Config
	corners map[CornerLevels]*Corner
}

// NewCornerCache creates an interning cache anchored at the campaign's
// base configurations.
func NewCornerCache(testCfg core.Config, sysCfg viper.Config) *CornerCache {
	return &CornerCache{
		testCfg: testCfg,
		sysCfg:  sysCfg,
		corners: make(map[CornerLevels]*Corner),
	}
}

// Corner returns the interned corner for a level vector, deriving it
// on first use.
func (cc *CornerCache) Corner(levels CornerLevels) *Corner {
	if c, ok := cc.corners[levels]; ok {
		return c
	}
	c := makeCorner(cc.testCfg, cc.sysCfg, levels)
	cc.corners[levels] = c
	return c
}

// cornerPolicy deals corners to batches and, in directed mode, learns
// from the per-batch cold-cell yield. All methods are called only
// between batches, from the campaign's merge loop.
type cornerPolicy struct {
	mode     CampaignMode
	baseSeed uint64
	cache    *CornerCache

	// scores[axis][level]: exponentially decayed count of cold cells
	// activated by batches that ran with that level.
	scores [numAxes][levelsPerAxis]float64
	// observed counts batches fed back so far; the first batch's yield
	// is never credited — any corner activates the easily reachable
	// mass of the matrix on a cold union, so crediting it would steer
	// toward an arbitrary corner.
	observed int
}

func newCornerPolicy(cfg CampaignConfig) *cornerPolicy {
	return &cornerPolicy{
		mode:     cfg.Mode,
		baseSeed: cfg.BaseSeed,
		cache:    NewCornerCache(cfg.TestCfg, cfg.SysCfg),
	}
}

// get interns the corner for a level vector via the cache.
func (p *cornerPolicy) get(levels [numAxes]int) *Corner {
	return p.cache.Corner(levels)
}

// corner returns the corner batch b runs with. Uniform mode always
// returns the base corner; swarm samples each axis uniformly; directed
// samples each axis with probability proportional to 1+score, which
// degrades gracefully to uniform sampling while no credit has accrued
// (the first batches explore exactly like swarm).
func (p *cornerPolicy) corner(batch int) *Corner {
	if p.mode == CampaignUniform {
		return p.get([numAxes]int{})
	}
	r := rng.New(p.baseSeed+uint64(batch)*cornerStep, cornerStream)
	var levels [numAxes]int
	var w [levelsPerAxis]float64
	for a := 0; a < numAxes; a++ {
		if p.mode == CampaignDirected {
			for l := 0; l < levelsPerAxis; l++ {
				w[l] = 1 + p.scores[a][l]
			}
			levels[a] = r.WeightedChoice(w[:])
		} else {
			levels[a] = r.Intn(levelsPerAxis)
		}
	}
	return p.get(levels)
}

// observe feeds a finished batch back into the policy: the batch ran
// with corner c and activated newCells previously-cold union cells
// (the count the campaign's merge step attributes via
// coverage.MergeCountNewFunc). Every level of every axis decays; the
// batch's levels are then credited with the yield.
func (p *cornerPolicy) observe(c *Corner, newCells int) {
	if p.mode != CampaignDirected {
		return
	}
	p.observed++
	for a := 0; a < numAxes; a++ {
		for l := 0; l < levelsPerAxis; l++ {
			p.scores[a][l] *= cornerDecay
		}
		if p.observed > 1 {
			p.scores[a][c.Levels[a]] += float64(newCells)
		}
	}
}
