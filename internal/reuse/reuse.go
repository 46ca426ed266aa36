// Package reuse holds the storage-recycling idioms every layer's
// Snapshot/Restore shares: a snapshot handed dead storage refills it
// instead of allocating, so a recycled cut costs allocations only for
// state that outgrew what the storage held last time.
package reuse

// Grow extends *s by one element and returns that element. When
// capacity allows, the element already sitting past len is kept as it
// is — stale, but with whatever slices and tables it owns ready to be
// refilled.
func Grow[T any](s *[]T) *T {
	if len(*s) < cap(*s) {
		*s = (*s)[:len(*s)+1]
	} else {
		var zero T
		*s = append(*s, zero)
	}
	return &(*s)[len(*s)-1]
}
