package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"drftest/internal/mem"
)

// fullCopy is the snapshot oracle: the whole array copied line by
// line, the way ArraySnapshot worked before it stored live lines only.
type fullCopy struct {
	lines                   []Line
	useClock, lookups, hits uint64
}

// copyArray copies every line: a built one as it stands, one without a
// plane in the just-built state.
func copyArray(a *Array) *fullCopy {
	c := &fullCopy{lines: make([]Line, ways(a)), useClock: a.useClock, lookups: a.lookups, hits: a.hits}
	for i := range c.lines {
		if l := built(a, i); l != nil {
			c.lines[i] = *l
			c.lines[i].Data = bytes.Clone(l.Data)
		}
	}
	return c
}

// diff reports how a differs from the copy in any way the array's
// users can observe: every line's validity and LRU stamp, a valid
// line's tag, state and bytes (an invalid line's are never read —
// Install rewrites all three), the clock and the stats.
func (c *fullCopy) diff(a *Array) string {
	if a.useClock != c.useClock || a.lookups != c.lookups || a.hits != c.hits {
		return fmt.Sprintf("clock/lookups/hits = %d/%d/%d, want %d/%d/%d",
			a.useClock, a.lookups, a.hits, c.useClock, c.lookups, c.hits)
	}
	for i := range c.lines {
		got, want := built(a, i), &c.lines[i]
		if got == nil {
			got = &Line{}
		}
		if got.valid != want.valid || got.lastUse != want.lastUse {
			return fmt.Sprintf("line %d: valid/lastUse = %v/%d, want %v/%d", i, got.valid, got.lastUse, want.valid, want.lastUse)
		}
		if want.valid && (got.Tag != want.Tag || got.State != want.State ||
			!bytes.Equal(got.Data, want.Data)) {
			return fmt.Sprintf("line %d: contents differ: %+v, want %+v", i, *got, *want)
		}
	}
	return ""
}

// TestArraySnapshotOracle drives random Install / Lookup / Invalidate /
// FlashInvalidate / Reset / Snapshot / Restore sequences from a
// just-built array, which holds no plane, and checks every Restore —
// of the armed snapshot (journal undo), of an older one (reinstall),
// of either into a just-built array, into fresh and recycled
// snapshots, from the empty array to the completely full one, and of a
// flash-invalidated array's empty cut — against the full-copy oracle
// and the index, row and plane invariants. It runs a 2-way array and a
// 16-way one whose high ways are reached only when a set fills.
func TestArraySnapshotOracle(t *testing.T) {
	const slots = 3
	type saved struct {
		snap *ArraySnapshot
		want *fullCopy
	}
	var armed, unarmed, fresh, empty, full int
	for _, cfg := range []Config{
		{SizeBytes: 512, LineSize: 16, Assoc: 2},   // 16 sets × 2 ways
		{SizeBytes: 1024, LineSize: 16, Assoc: 16}, // 4 sets × 16 ways
	} {
		for seed := int64(0); seed < 60; seed++ {
			rnd := rand.New(rand.NewSource(seed))
			a := NewArray(cfg)
			p := newProbe(t, a)
			checkIndex(t, a, p.top, "just built")
			// The address range sets the fill level — a quarter of the
			// seeds can never fill the array, the rest overflow it — and
			// half the seeds never flash-invalidate or reset, so theirs
			// stays full once filled.
			addrs := cfg.SizeBytes / 4 << (seed % 4 * 2)
			bulk := seed < 30
			var held [slots]*saved
			for step := 0; step < 400; step++ {
				addr := mem.Addr(rnd.Intn(addrs))
				switch op := rnd.Intn(16); {
				case op < 6:
					if p.Lookup(addr) == nil {
						if way := p.Victim(addr, nil); way != nil {
							a.Install(way, addr, rnd.Intn(4))
						}
					}
				case op < 9:
					if l := p.Lookup(addr); l != nil {
						src := make([]byte, cfg.LineSize)
						rnd.Read(src)
						mask := make([]bool, cfg.LineSize)
						for i := range mask {
							mask[i] = rnd.Intn(2) == 0
						}
						l.WriteMasked(src, mask)
					}
				case op < 10:
					a.Invalidate(addr)
				case op < 11 && bulk:
					keep := rnd.Intn(3)
					a.FlashInvalidate(func(l *Line) bool { return int(l.Tag/mem.Addr(cfg.LineSize))%3 != keep })
				case op < 12 && bulk && rnd.Intn(4) == 0:
					a.Reset()
				case op < 14:
					k := rnd.Intn(slots)
					var dead *ArraySnapshot
					if held[k] != nil && rnd.Intn(2) == 0 {
						dead = held[k].snap
					}
					switch a.CountValid() {
					case 0:
						empty++
					case ways(a):
						full++
					}
					held[k] = &saved{want: copyArray(a)}
					held[k].snap = a.SnapshotInto(dead)
				default:
					s := held[rnd.Intn(slots)]
					if s == nil {
						continue
					}
					if rnd.Intn(4) == 0 {
						// A just-built array has this snapshot armed by no
						// one: the reinstall path, building only the
						// planes its lines lie in.
						fresh++
						q := newProbe(t, NewArray(cfg))
						q.Restore(s.snap)
						if d := s.want.diff(q.a); d != "" {
							t.Fatalf("%+v seed %d step %d: restore into a fresh array: %s", cfg, seed, step, d)
						}
						checkIndex(t, q.a, q.top, "restore into a fresh array")
					}
					if a.snap == s.snap {
						armed++
					} else {
						unarmed++
					}
					p.Restore(s.snap)
					if d := s.want.diff(a); d != "" {
						t.Fatalf("%+v seed %d step %d: restore: %s", cfg, seed, step, d)
					}
					checkIndex(t, a, p.top, "restore")
				}
			}
			for k, s := range held {
				if s == nil {
					continue
				}
				p.Restore(s.snap)
				if d := s.want.diff(a); d != "" {
					t.Fatalf("%+v seed %d: final restore of slot %d: %s", cfg, seed, k, d)
				}
			}
			// Flash, then snapshot: flash-invalidated lines are in the
			// just-built state, so the cut of a flashed array stores no
			// lines however full it was, and restoring it — armed, then
			// not — empties the array again.
			a.FlashInvalidate(nil)
			want, flashed := copyArray(a), a.Snapshot()
			if n := len(flashed.hdrs) + len(flashed.data); n != 0 {
				t.Fatalf("%+v seed %d: snapshot of a flashed array stores %d headers+bytes, want 0", cfg, seed, n)
			}
			for _, rearm := range []bool{false, true} {
				for i := 0; i < 8; i++ {
					addr := mem.Addr(rnd.Intn(addrs))
					a.Install(p.Victim(addr, nil), addr, 1)
				}
				if rearm {
					a.Snapshot()
				}
				p.Restore(flashed)
				if d := want.diff(a); d != "" || a.CountValid() != 0 {
					t.Fatalf("%+v seed %d: restore of the flashed cut (rearmed %v): %d valid, %s", cfg, seed, rearm, a.CountValid(), d)
				}
				checkIndex(t, a, p.top, "restore of the flashed cut")
			}
		}
	}
	if armed < 100 || unarmed < 100 || fresh < 50 || empty < 10 || full < 10 {
		t.Fatalf("coverage too thin: %d armed, %d unarmed and %d fresh-array restores, %d empty and %d full snapshots",
			armed, unarmed, fresh, empty, full)
	}
}

// TestArraySnapshotSteadyStateAllocs pins the recycled cut: once a
// snapshot has held the array's live lines, refilling it and restoring
// it — armed or not — allocates nothing.
func TestArraySnapshotSteadyStateAllocs(t *testing.T) {
	a := NewArray(cfg64)
	for i := 0; i < 12; i++ {
		addr := mem.Addr(i * 64)
		a.Install(a.Victim(addr, nil), addr, 1)
	}
	s, other := a.Snapshot(), a.Snapshot()
	if n := testing.AllocsPerRun(20, func() {
		s = a.SnapshotInto(s)
		a.Invalidate(0)
		a.Restore(s) // armed: journal undo
		other = a.SnapshotInto(other)
		a.Restore(s) // unarmed: reinstall
	}); n != 0 {
		t.Fatalf("recycled snapshot + restore allocated %v objects, want 0", n)
	}
}
