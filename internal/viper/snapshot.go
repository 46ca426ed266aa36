package viper

import "drftest/internal/reuse"

// listSave is one entry of a map of lists (stall queues, held
// releases), saved with a backing slice of its own so a recycled
// snapshot refills it.
type listSave[K comparable, V any] struct {
	key  K
	vals []V
}

// saveLists refills dst with a copy of every list in m.
func saveLists[K comparable, V any](dst []listSave[K, V], m map[K][]V) []listSave[K, V] {
	dst = dst[:0]
	for k, v := range m {
		e := reuse.Grow(&dst)
		e.key, e.vals = k, append(e.vals[:0], v...)
	}
	return dst
}

// loadLists replaces m's contents with private copies of the saved
// lists, refilling the list m already holds under a key when it has
// one.
func loadLists[K comparable, V any](m map[K][]V, src []listSave[K, V]) {
	for k := range m {
		saved := false
		for i := range src {
			saved = saved || src[i].key == k
		}
		if !saved {
			delete(m, k)
		}
	}
	for i := range src {
		m[src[i].key] = append(m[src[i].key][:0], src[i].vals...)
	}
}
