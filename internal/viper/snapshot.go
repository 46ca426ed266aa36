package viper

import "drftest/internal/reuse"

// waitList holds what waits on a key — requests and messages stalled on
// a line, probes stalled on a line, releases held for a thread — in
// arrival order per key. A drained list's storage is recycled, so
// repeated contention on hot keys allocates nothing once warm. The zero
// value is ready to use.
type waitList[K comparable, V any] struct {
	lists map[K][]V
	free  [][]V
}

// push appends v to k's list.
func (w *waitList[K, V]) push(k K, v V) {
	q, ok := w.lists[k]
	if !ok {
		if w.lists == nil {
			w.lists = make(map[K][]V)
		}
		if n := len(w.free); n > 0 {
			q, w.free = w.free[n-1], w.free[:n-1]
		}
	}
	w.lists[k] = append(q, v)
}

// take removes and returns k's list. The caller retries its entries —
// which may push onto k again, starting a new list, never this one —
// and then hands the list back through recycle.
func (w *waitList[K, V]) take(k K) []V {
	q, ok := w.lists[k]
	if ok {
		delete(w.lists, k)
	}
	return q
}

// recycle returns a taken list's storage for reuse.
func (w *waitList[K, V]) recycle(q []V) {
	if cap(q) > 0 {
		clear(q)
		w.free = append(w.free, q[:0])
	}
}

// drop empties the wait-list, handing every waiting value to release
// (nil: none needed) on its way out.
func (w *waitList[K, V]) drop(release func(V)) {
	for k, q := range w.lists {
		for _, v := range q {
			if release != nil {
				release(v)
			}
		}
		delete(w.lists, k)
		w.recycle(q)
	}
}

// listSave is one saved list of a waitList, with a backing slice of its
// own so a recycled snapshot refills it.
type listSave[K comparable, V any] struct {
	key  K
	vals []V
}

// save refills dst with a copy of every list.
func (w *waitList[K, V]) save(dst []listSave[K, V]) []listSave[K, V] {
	dst = dst[:0]
	for k, v := range w.lists {
		e := reuse.Grow(&dst)
		e.key, e.vals = k, append(e.vals[:0], v...)
	}
	return dst
}

// load replaces the contents with private copies of the saved lists.
func (w *waitList[K, V]) load(src []listSave[K, V]) {
	w.drop(nil)
	for i := range src {
		for _, v := range src[i].vals {
			w.push(src[i].key, v)
		}
	}
}
