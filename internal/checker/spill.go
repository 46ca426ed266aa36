package checker

import "math/bits"

// spillPool recycles the arrays a fold's lists spill into once they
// outgrow their inline buffers, by power-of-two capacity. A list gives
// its array back when it shrinks back to inline or its episode is
// recycled, so a run holds the spill arrays of its peak, not one per
// fold it ever grew. The arrays carry no pointers and no meaning: a cut
// copies list values, never an array, so the free lists are scratch.
type spillPool[T any] struct{ free [][][]T }

// resize sets *list to length n with its first min(len, n) elements:
// in inline's array when n fits there, otherwise in a spill array of at
// least n and twice inline's capacity, its own when it is one and large
// enough. A spill array the list leaves goes back to the pool. A list
// that stays in its array only changes length, so the common case
// writes no pointer (and meets no write barrier).
func (p *spillPool[T]) resize(list *[]T, inline []T, n int) {
	if n <= cap(*list) && (n > cap(inline)) == (cap(*list) > cap(inline)) {
		*list = (*list)[:n]
	} else {
		p.move(list, inline, n)
	}
}

// move is resize for a list that changes arrays.
func (p *spillPool[T]) move(list *[]T, inline []T, n int) {
	var out []T
	if n <= cap(inline) {
		out = inline[:n]
	} else if class := bits.Len(uint(max(n, 2*cap(inline)) - 1)); class < len(p.free) && len(p.free[class]) > 0 {
		free := p.free[class]
		out, p.free[class] = free[len(free)-1][:n], free[:len(free)-1]
	} else {
		out = make([]T, n, 1<<class)
	}
	copy(out, *list)
	if cap(*list) > cap(inline) {
		p.put(*list)
	}
	*list = out
}

// push appends x to *list, spilling through p when the list is full.
func (p *spillPool[T]) push(list *[]T, inline []T, x T) {
	if n := len(*list); n == cap(*list) {
		p.move(list, inline, n+1)
		*list = (*list)[:n]
	}
	*list = append(*list, x)
}

// put frees a spill array.
func (p *spillPool[T]) put(array []T) {
	class := bits.Len(uint(cap(array))) - 1
	for len(p.free) <= class {
		p.free = append(p.free, nil)
	}
	p.free[class] = append(p.free[class], array[:0])
}

// spills is a Stream's spill arrays, a pool per list element type.
type spills struct {
	intervals spillPool[ival]
	writers   spillPool[writerRec]
	touched   spillPool[int]
	ownWrites spillPool[ownWrite]
}
