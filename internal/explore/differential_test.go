package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/viper"
)

// diffSys is the differential test's system: 2 CUs over one L2 slice,
// no response jitter, write-through or write-back.
func diffSys(wb bool, bugs viper.BugSet) viper.Config {
	c := exploreSysCfg()
	c.WriteBackL2 = wb
	c.Bugs = bugs
	return c
}

// diffCfg is a tiny workload naive enumeration exhausts: 2 wavefronts
// × 2 lanes, one sync variable, a few data variables.
func diffCfg(seed uint64, dataVars, actions int) core.Config {
	c := exploreTestCfg(seed)
	c.ThreadsPerWF = 2
	c.ActionsPerEpisode = actions
	c.NumDataVars = dataVars
	c.AddressRangeBytes = uint64(64 * (dataVars + 1) * 2)
	return c
}

// terminal is what one exploration yields for the comparison: whether
// it found a violation, whether the depth bound cut the space, and the
// digests of the terminal states its completed schedules reached.
type terminal struct {
	res     *Result
	digests map[[32]byte]bool
}

// explored enumerates cfg's schedule space with the given dependence
// mutation, digesting each completed schedule's terminal state.
func explored(t *testing.T, cfg Config, w widening) terminal {
	t.Helper()
	x := newExplorer(cfg)
	x.widen = w
	out := terminal{digests: map[[32]byte]bool{}}
	var mu sync.Mutex
	x.onTerminal = func(r *run) {
		d := verdictDigest(r)
		mu.Lock()
		out.digests[d] = true
		mu.Unlock()
	}
	res, err := x.explore()
	if err != nil {
		t.Fatal(err)
	}
	out.res = res
	return out
}

// verdictDigest hashes the verdict state a terminal run stands in:
// backing-store bytes over the tester's range, each cache's valid lines
// with their tag, state and data, and the tester's data-variable
// values. LRU stamps, ticks and logs are left out: schedules the
// reduction identifies may differ in them.
func verdictDigest(r *run) [32]byte {
	h := sha256.New()
	buf := make([]byte, r.testCfg.WithDefaults().AddressRangeBytes)
	r.Sys.Mem.Store().ReadBytes(0, buf)
	h.Write(buf)
	r.Sys.ForEachValidLine(func(c int, l *cache.Line) {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(c)))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(l.Tag)))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(l.State)))
		h.Write(l.Data)
	})
	for _, v := range r.Tester.DataValues(nil) {
		h.Write(binary.LittleEndian.AppendUint32(nil, v))
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// sameSet reports whether two digest sets are equal.
func sameSet(a, b map[[32]byte]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for d := range a {
		if !b[d] {
			return false
		}
	}
	return true
}

// diffCase is one configuration of the differential test.
type diffCase struct {
	name string
	sys  viper.Config
	tc   core.Config
}

// diffCases are tiny configurations naive enumeration exhausts in at
// most 12 288 schedules: clean runs on write-through and write-back,
// and each injected bug on a configuration where the first schedule is
// clean, so finding it takes exploring. The nonatomic case's L2 is one
// direct-mapped line: whether the sync line is still cached when the
// second fetch-add arrives — the buggy fast path needs a hit — turns on
// the order of fills to distinct lines in that one set.
func diffCases() []diffCase {
	small := cache.Config{SizeBytes: 256, LineSize: 64, Assoc: 2}
	oneLine := cache.Config{SizeBytes: 64, LineSize: 64, Assoc: 1}
	with := func(wb bool, bugs viper.BugSet, l2 cache.Config) viper.Config {
		c := diffSys(wb, bugs)
		c.L1, c.L2 = small, l2
		return c
	}
	twoEps := func(c core.Config) core.Config {
		c.EpisodesPerThread = 2
		return c
	}
	return []diffCase{
		{"clean-wt", diffSys(false, viper.BugSet{}), diffCfg(2, 6, 4)},
		{"clean-wt-oneline", with(false, viper.BugSet{}, oneLine), twoEps(diffCfg(2, 6, 3))},
		{"clean-wb", diffSys(true, viper.BugSet{}), diffCfg(2, 2, 4)},
		{"lostwrite", with(false, viper.BugSet{LostWriteRace: true}, small), twoEps(diffCfg(3, 2, 4))},
		{"nonatomic", with(false, viper.BugSet{NonAtomicRMW: true}, oneLine), twoEps(diffCfg(2, 6, 3))},
		{"dropack", with(false, viper.BugSet{DropWBAckEvery: 2}, small), twoEps(diffCfg(3, 2, 4))},
		{"staleacquire", with(true, viper.BugSet{StaleAcquire: true}, small), twoEps(diffCfg(1, 4, 3))},
	}
}

// disagree compares a pruned exploration with the naive one: they must
// agree on whether a violation exists and, when none does, reach the
// same terminal states. It returns "" when they agree.
func disagree(naive, pruned terminal) string {
	if (naive.res.Violation != nil) != (pruned.res.Violation != nil) {
		return fmt.Sprintf("naive found a violation: %v; pruned: %v", naive.res.Violation != nil, pruned.res.Violation != nil)
	}
	if naive.res.Violation == nil && !sameSet(naive.digests, pruned.digests) {
		return fmt.Sprintf("naive reached %d terminal states, pruned %d, not the same set", len(naive.digests), len(pruned.digests))
	}
	return ""
}

var widenings = map[widening]string{keepAll: "sound", dropSameUnit: "same-unit clause dropped", dropSetCollision: "set-collision clause dropped"}

// TestPruneMatchesNaive is the differential test of the sleep-set
// reduction against naive enumeration: on every case, at a depth
// neither run is cut by, Prune: true and Prune: false agree on whether
// a violation exists, and clean runs reach the same set of terminal
// states. It also shows the test can fail: with the set-collision
// clause dropped from dependent, the nonatomic case's pruned run
// misses the violation. Dropping the same-unit clause changes nothing
// on any case: the clause is unreachable (DESIGN §16.2).
func TestPruneMatchesNaive(t *testing.T) {
	caught := false
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{SysCfg: c.sys, TestCfg: c.tc, Depth: 64, Budget: 100_000, Workers: 1}
			naive := explored(t, cfg, keepAll)
			cfg.Prune = true
			for _, w := range []widening{keepAll, dropSameUnit, dropSetCollision} {
				pruned := explored(t, cfg, w)
				for _, r := range []*Result{naive.res, pruned.res} {
					if r.DepthLimited || r.BudgetExhausted {
						t.Fatalf("%s: exploration cut short: %+v", widenings[w], r)
					}
				}
				d := disagree(naive, pruned)
				t.Logf("%s: naive %d schedules, pruned %d (+%d abandoned), %d terminal states %s",
					widenings[w], naive.res.Schedules, pruned.res.Schedules, pruned.res.PrunedPaths, len(naive.digests), d)
				switch {
				case w == dropSetCollision:
					caught = caught || d != ""
				case d != "":
					t.Fatalf("%s: %s", widenings[w], d)
				}
			}
		})
	}
	if !caught {
		t.Fatal("dropping the set-collision clause went unnoticed on every case")
	}
}
