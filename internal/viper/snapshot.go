package viper

import "drftest/internal/table"

// waitList holds what waits on a key — requests and messages stalled on
// a line, load misses awaiting a line's fill, probes stalled on a line,
// releases held for a thread — in arrival order per key. A drained
// list's storage is recycled, so repeated contention on hot keys
// allocates nothing once warm. The zero value is ready to use.
type waitList[K table.Key, V any] struct {
	lists table.Table[K, []V]
	free  [][]V
}

// spare pops a recycled list's storage, nil when there is none.
func (w *waitList[K, V]) spare() (q []V) {
	if n := len(w.free); n > 0 {
		q, w.free = w.free[n-1], w.free[:n-1]
	}
	return q
}

// push appends v to k's list and returns the list's new length.
func (w *waitList[K, V]) push(k K, v V) int {
	q := w.lists.Slot(k)
	if *q == nil {
		*q = w.spare()
	}
	*q = append(*q, v)
	return len(*q)
}

// has reports whether anything waits on k.
func (w *waitList[K, V]) has(k K) bool { return w.lists.Ptr(k) != nil }

// take removes and returns k's list. The caller retries its entries —
// which may push onto k again, starting a new list, never this one —
// and then hands the list back through recycle.
func (w *waitList[K, V]) take(k K) []V {
	q, ok := w.lists.Get(k)
	if ok {
		w.lists.Delete(k)
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
	w.lists.Each(func(_ K, q *[]V) {
		for _, v := range *q {
			if release != nil {
				release(v)
			}
		}
		w.recycle(*q)
	})
	w.lists.Clear()
}

// copyFrom makes w hold private copies of src's lists — saving a cut
// and restoring one are this same copy. The table is copied slot for
// slot, then every list it shares with src is replaced by a copy in
// recycled storage.
func (w *waitList[K, V]) copyFrom(src *waitList[K, V]) {
	w.drop(nil)
	w.lists.CopyFrom(&src.lists)
	w.lists.Each(func(_ K, q *[]V) { *q = append(w.spare(), *q...) })
}
