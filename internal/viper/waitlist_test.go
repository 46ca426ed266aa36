package viper

import (
	"maps"
	"slices"
	"testing"

	"drftest/internal/table"
)

// TestWaitList walks the wait-list through what the controllers do
// with it: per-key arrival order, a drain whose retries stall again on
// the key being drained, a cut and its restore, and a reset that hands
// every waiter back.
func TestWaitList(t *testing.T) {
	var w waitList[int, string]
	if q := w.take(7); q != nil {
		t.Fatalf("take on the zero value = %v, want nil", q)
	}
	w.recycle(nil) // what a wake of an idle line does
	w.push(1, "a")
	w.push(2, "x")
	w.push(1, "b")
	w.push(1, "c")

	// Drain key 1; "b" stalls again while the drain is still walking the
	// list it took. The new list must not be the one being walked.
	drained := w.take(1)
	if !slices.Equal(drained, []string{"a", "b", "c"}) {
		t.Fatalf("take(1) = %v, want arrival order [a b c]", drained)
	}
	var seen []string
	for _, v := range drained {
		seen = append(seen, v)
		if v == "b" {
			w.push(1, "b")
			w.push(1, "b2")
		}
	}
	if !slices.Equal(seen, []string{"a", "b", "c"}) {
		t.Fatalf("re-stalling during the drain disturbed it: walked %v", seen)
	}
	w.recycle(drained)
	if got := lists(&w); !maps.EqualFunc(got, map[int][]string{1: {"b", "b2"}, 2: {"x"}}, slices.Equal) {
		t.Fatalf("after the drain the lists are %v, want 1:[b b2] 2:[x]", got)
	}
	if len(w.free) != 1 || len(w.free[0]) != 0 || cap(w.free[0]) < 3 || w.free[0][:1][0] != "" {
		t.Fatalf("drained list not recycled empty and zeroed: %q", w.free)
	}

	// Cut, diverge, restore; the save owns its storage.
	var save waitList[int, string]
	save.copyFrom(&w)
	w.take(2)
	w.push(1, "late")
	w.push(9, "other")
	w.copyFrom(&save)
	if got := lists(&w); !maps.EqualFunc(got, map[int][]string{1: {"b", "b2"}, 2: {"x"}}, slices.Equal) {
		t.Fatalf("the restore left %v, want 1:[b b2] 2:[x]", got)
	}
	w.push(2, "y")
	if got := lists(&save); !slices.Equal(got[2], []string{"x"}) {
		t.Fatalf("a push after the restore reached the save: %v", got)
	}
	if save.copyFrom(&w); save.lists.Len() != 2 || !slices.Equal(lists(&save)[2], []string{"x", "y"}) {
		t.Fatalf("refilled save holds %v, want 1:[b b2] 2:[x y]", lists(&save))
	}

	var released []string
	w.drop(func(v string) { released = append(released, v) })
	slices.Sort(released)
	if w.lists.Len() != 0 || !slices.Equal(released, []string{"b", "b2", "x", "y"}) {
		t.Fatalf("drop left %v and released %v", lists(&w), released)
	}
}

// lists reads a wait-list out into a plain map.
func lists[K table.Key, V any](w *waitList[K, V]) map[K][]V {
	m := map[K][]V{}
	w.lists.Each(func(k K, q *[]V) { m[k] = *q })
	return m
}

// TestWaitListSteadyStateAllocs: contention that comes back — stall on
// a few hot keys, drain with a re-stall, cut and restore — allocates
// nothing once the lists and the save have been through it once.
func TestWaitListSteadyStateAllocs(t *testing.T) {
	var w, save waitList[uint64, *int]
	v := new(int)
	round := func() {
		for i := 0; i < 24; i++ {
			w.push(uint64(i%3)*64, v)
		}
		save.copyFrom(&w)
		for k := uint64(0); k < 3; k++ {
			q := w.take(k * 64)
			for i := range q {
				if i == 0 {
					w.push(k*64, v) // re-stall during the drain
				}
			}
			w.recycle(q)
		}
		w.copyFrom(&save)
		w.drop(nil)
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("wait-list round allocates %.2f, want 0", avg)
	}
}
