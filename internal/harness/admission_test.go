package harness

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"drftest/internal/cache"
	"drftest/internal/core"
	"drftest/internal/cputester"
	"drftest/internal/sim"
	"drftest/internal/viper"
)

// unboundedFields are the numeric config fields admission leaves
// unbounded, each with the reason every value of it is safe.
var unboundedFields = map[string]string{
	"sysCfg.JitterSeed":          "every value seeds the jitter stream",
	"sysCfg.Bugs.DropWBAckEvery": "a period in acks: a longer one only drops fewer",
	"testCfg.Seed":               "every value seeds the run",
	"testCfg.StoreFraction":      "a value outside (0, 1) selects the default",
	"testCfg.DeadlockThreshold":  "a longer threshold only reports a deadlock later",
	"testCfg.LogCapacity":        "a value ≤ 0 selects the default",
	"cpuCfg.Seed":                "every value seeds the run",
	"cpuCfg.StoreFraction":       "a value outside (0, 1) selects the default",
	"cpuCfg.DeadlockThreshold":   "a longer threshold only reports a deadlock later",
}

// numericField is one numeric field reached by walking a config: its
// dotted path from the config root, the names an error may call its
// last element by (Go and JSON), and a setter on a copy of the root.
type numericField struct {
	path  string
	names []string
	kind  reflect.Kind
	index []int
}

// numericFields lists every numeric field of v's type, descending
// into struct fields.
func numericFields(prefix string, t reflect.Type, index []int) []numericField {
	var out []numericField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		idx := append(append([]int{}, index...), i)
		path := prefix + "." + f.Name
		switch f.Type.Kind() {
		case reflect.Struct:
			out = append(out, numericFields(path, f.Type, idx)...)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			names := []string{f.Name}
			if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != "" {
				names = append(names, tag)
			}
			out = append(out, numericField{path: path, names: names, kind: f.Type.Kind(), index: idx})
		}
	}
	return out
}

// setExtremes returns setters that put a numeric field at its type's
// extremes: the maximum and, for a signed type, -1.
func setExtremes(k reflect.Kind) []func(reflect.Value) {
	switch k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return []func(reflect.Value){
			func(v reflect.Value) { v.SetInt(1<<(v.Type().Bits()-1) - 1) },
			func(v reflect.Value) { v.SetInt(-1) },
		}
	case reflect.Float32, reflect.Float64:
		return []func(reflect.Value){
			func(v reflect.Value) { v.SetFloat(math.MaxFloat32) },
			func(v reflect.Value) { v.SetFloat(-1) },
		}
	default:
		return []func(reflect.Value){
			func(v reflect.Value) { v.SetUint(math.MaxUint64 >> (64 - v.Type().Bits())) },
		}
	}
}

// TestAdmissionCoversEveryField is the standing admission property:
// every numeric field of viper.Config (its caches, memory controller
// and bug set included), of core.Config and of cputester.Config, set to
// its type's extreme on a valid tiny base, is either refused by
// ValidateRun (ValidateCPURun) with an error naming the field, or
// listed in unboundedFields — and then a tiny run of it completes. A
// field added without a limit or a reason fails here.
func TestAdmissionCoversEveryField(t *testing.T) {
	baseSys := viper.SmallCacheConfig()
	baseSys.NumCUs = 2
	baseTest := core.Config{
		Seed: 1, NumWavefronts: 2, ThreadsPerWF: 2, EpisodesPerThread: 2, ActionsPerEpisode: 6,
		NumSyncVars: 2, NumDataVars: 16,
	}
	if err := ValidateRun(baseSys, baseTest, 0); err != nil {
		t.Fatalf("base refused: %v", err)
	}
	fields := append(numericFields("sysCfg", reflect.TypeOf(baseSys), nil),
		numericFields("testCfg", reflect.TypeOf(baseTest), nil)...)
	for _, f := range fields {
		for _, set := range setExtremes(f.kind) {
			sys, test := baseSys, baseTest
			root := reflect.ValueOf(&sys).Elem()
			if strings.HasPrefix(f.path, "testCfg.") {
				root = reflect.ValueOf(&test).Elem()
			}
			field := root.FieldByIndex(f.index)
			set(field)
			x := field.Interface()
			err := ValidateRun(sys, test, 0)
			if err != nil {
				named := false
				for _, n := range f.names {
					named = named || strings.Contains(err.Error(), n)
				}
				if !named {
					t.Errorf("%s = %v: refused without naming the field: %v", f.path, x, err)
				}
				continue
			}
			if _, ok := unboundedFields[f.path]; !ok {
				t.Errorf("%s = %v admitted, and the field has neither a limit nor a reason in unboundedFields", f.path, x)
				continue
			}
			if rep := NewGPURun(sys, test).Tester.Run(); rep.OpsCompleted != test.WithDefaults().TotalActions() {
				t.Errorf("%s = %v: the admitted run completed %d of %d operations", f.path, x,
					rep.OpsCompleted, test.WithDefaults().TotalActions())
			}
		}
	}
	baseCPU := cputester.Config{Seed: 1, OpsPerCPU: 50, NumLocations: 16}
	if err := ValidateCPURun(2, DefaultCPUCache, baseCPU, 0); err != nil {
		t.Fatalf("CPU base refused: %v", err)
	}
	cpuFields := numericFields("cpuCfg", reflect.TypeOf(baseCPU), nil)
	fields = append(fields, cpuFields...)
	for _, f := range cpuFields {
		for _, set := range setExtremes(f.kind) {
			test := baseCPU
			field := reflect.ValueOf(&test).Elem().FieldByIndex(f.index)
			set(field)
			x := field.Interface()
			if err := ValidateCPURun(2, DefaultCPUCache, test, 0); err != nil {
				if !strings.Contains(err.Error(), f.names[0]) {
					t.Errorf("%s = %v: refused without naming the field: %v", f.path, x, err)
				}
				continue
			}
			if _, ok := unboundedFields[f.path]; !ok {
				t.Errorf("%s = %v admitted, and the field has neither a limit nor a reason in unboundedFields", f.path, x)
				continue
			}
			b := BuildCPU(2, DefaultCPUCache)
			if rep := cputester.New(b.K, b.Caches, test).Run(); rep.OpsCompleted != 2*uint64(test.OpsPerCPU) {
				t.Errorf("%s = %v: the admitted run completed %d of %d operations", f.path, x, rep.OpsCompleted, 2*test.OpsPerCPU)
			}
		}
	}
	for path := range unboundedFields {
		found := false
		for _, f := range fields {
			found = found || f.path == path
		}
		if !found {
			t.Errorf("unboundedFields lists %s, which is not a numeric config field", path)
		}
	}
}

// deadlockRuleBase is the 2-wavefront shape whose campaigns used to
// report "no forward progress" on a correct protocol once the link
// latencies reached a quarter of their limit.
func deadlockRuleBase() (viper.Config, core.Config) {
	sys := viper.SmallCacheConfig()
	test := core.DefaultConfig()
	test.NumWavefronts, test.EpisodesPerThread, test.ActionsPerEpisode = 2, 4, 24
	test.NumSyncVars, test.NumDataVars = 4, 64
	return sys, test
}

// TestDeadlockRule: ValidateRun refuses a (system, tester) pair whose
// worst-case request wait reaches the deadlock threshold — both
// false-alarm shapes the daemon used to admit are refused — and a
// campaign on the last admitted value of each wait term (the link
// latencies, the memory service period) runs clean, while one tick
// more is refused.
func TestDeadlockRule(t *testing.T) {
	sys, test := deadlockRuleBase()
	sys.ReqLatency, sys.RespLatency = 1<<18, 1<<18
	if err := ValidateRun(sys, test, 0); err == nil || !strings.Contains(err.Error(), "DeadlockThreshold") {
		t.Errorf("2-wavefront campaign at 2^18-tick links: ValidateRun = %v, want the deadlock rule", err)
	}
	sys = viper.SmallCacheConfig()
	sys.Mem.ServicePeriod = 20_000
	if err := ValidateRun(sys, core.DefaultConfig(), 0); err == nil || !strings.Contains(err.Error(), "Mem.ServicePeriod") {
		t.Errorf("default shape at a 20 000-tick service period: ValidateRun = %v, want the deadlock rule", err)
	}

	for _, knob := range []struct {
		name string
		set  func(*viper.Config, sim.Tick)
	}{
		{"links", func(c *viper.Config, d sim.Tick) { c.ReqLatency, c.RespLatency = d, d }},
		{"service period", func(c *viper.Config, d sim.Tick) { c.Mem.ServicePeriod = d }},
	} {
		sys, test := deadlockRuleBase()
		admits := func(d sim.Tick) bool {
			s := sys
			knob.set(&s, d)
			return ValidateRun(s, test, 0) == nil
		}
		// The largest admitted value, by bisection.
		lo, hi := sim.Tick(0), sim.MaxDelay
		for lo < hi {
			if mid := (lo + hi + 1) / 2; admits(mid) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		if lo == sim.MaxDelay || admits(lo+1) {
			t.Fatalf("%s: the rule admits every value up to the limit", knob.name)
		}
		knob.set(&sys, lo)
		res := RunGPUCampaign(CampaignConfig{SysCfg: sys, TestCfg: test, BaseSeed: 1, Workers: 1, BatchSize: 8, MaxSeeds: 16})
		if len(res.Failures) > 0 {
			f := res.Failures[0]
			t.Errorf("%s at %d, just inside the rule: seed %d reported %s", knob.name, lo, f.Seed, f.Failures[0].Message)
		}
	}
}

// TestValidateCPURun: the CPU configurations that used to hang replay
// or panic a build are refused, each with an error naming the field.
func TestValidateCPURun(t *testing.T) {
	base := cputester.DefaultConfig()
	tiny := base
	tiny.NumLocations, tiny.AddressRangeBytes = 256, 4
	for _, tc := range []struct {
		field string
		cpus  int
		cache cache.Config
		test  cputester.Config
		depth int
	}{
		{"AddressRangeBytes", 2, DefaultCPUCache, tiny, 0},
		{"numCPUs", -3, DefaultCPUCache, base, 0},
		{"numCPUs", 0, DefaultCPUCache, base, 0},
		{"numCPUs", 65, DefaultCPUCache, base, 0},
		{"SizeBytes", 2, cache.Config{}, base, 0},
		{"LineSize", 2, cache.Config{SizeBytes: 512, LineSize: 3, Assoc: 2}, base, 0},
		{"traceDepth", 2, DefaultCPUCache, base, 4_000_000_000},
	} {
		err := ValidateCPURun(tc.cpus, tc.cache, tc.test, tc.depth)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s probe: ValidateCPURun = %v, want an error naming the field", tc.field, err)
		}
	}
	if err := ValidateCPURun(2, DefaultCPUCache, base, 0); err != nil {
		t.Errorf("default CPU run refused: %v", err)
	}
}
