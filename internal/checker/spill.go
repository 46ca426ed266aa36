package checker

import (
	"math/bits"
	"slices"
	"unsafe"
)

// spillPool recycles the arrays a fold's lists spill into once they
// outgrow their inline buffers, by power-of-two capacity. A list gives
// its array back when it shrinks back to inline or its episode is
// recycled, so a run holds the spill arrays of its peak, not one per
// fold it ever grew. New arrays are carved from a chunk of their class
// (16 KB, or one array when that is larger), so a fresh stream allocates
// per chunk of its peak, not per array. The arrays carry no pointers and
// no meaning: a cut copies list values, never an array, so the free
// lists and chunks are scratch.
type spillPool[T any] struct{ classes [bits.UintSize]spillClass[T] }

// spillClass holds one capacity's free arrays and the uncarved tail of
// its chunk. free's capacity covers every array carved, so giving one
// back never grows it; it doubles as chunks are carved.
type spillClass[T any] struct {
	free   [][]T
	chunk  []T
	carved int
}

// shrink cuts *list to its first n ≤ len(*list) elements. An unspilled
// list only changes length, in a path the compiler inlines and that
// writes no pointer; a spilled one goes through resize.
func (p *spillPool[T]) shrink(list *[]T, inline []T, n int) {
	if cap(*list) <= cap(inline) {
		*list = (*list)[:n]
	} else {
		p.resize(list, inline, n)
	}
}

// push appends x to *list, spilling through p when the list is full.
func (p *spillPool[T]) push(list *[]T, inline []T, x T) {
	if len(*list) == cap(*list) {
		p.grow(list, inline)
	}
	*list = append(*list, x)
}

// grow is push's slow path, kept out of line so that push inlines.
//
//go:noinline
func (p *spillPool[T]) grow(list *[]T, inline []T) {
	n := len(*list)
	p.resize(list, inline, n+1)
	*list = (*list)[:n]
}

// resize sets *list to length n with its first min(len, n) elements:
// in inline's array when n fits there, otherwise in a spill array of at
// least n and twice inline's capacity, its own when it is one and large
// enough. A spill array the list leaves goes back to the pool.
func (p *spillPool[T]) resize(list *[]T, inline []T, n int) {
	var out []T
	switch {
	case n <= cap(inline):
		out = inline[:n]
	case n <= cap(*list):
		*list = (*list)[:n]
		return
	default:
		out = p.get(bits.Len(uint(max(n, 2*cap(inline)) - 1)))[:n]
	}
	copy(out, *list)
	if c := cap(*list); c > cap(inline) {
		free := &p.classes[bits.Len(uint(c))-1].free
		*free = append(*free, (*list)[:0])
	}
	*list = out
}

// get takes a free array of capacity 1<<class, or carves a new one.
func (p *spillPool[T]) get(class int) []T {
	c := &p.classes[class]
	if n := len(c.free); n > 0 {
		out := c.free[n-1]
		c.free = c.free[:n-1]
		return out
	}
	size := 1 << class
	if len(c.chunk) < size {
		c.chunk = make([]T, max(size, 16<<10/int(unsafe.Sizeof(*new(T)))))
		if c.carved += len(c.chunk) / size; cap(c.free) < c.carved {
			c.free = slices.Grow(c.free, 2*c.carved-len(c.free))
		}
	}
	out := c.chunk[:size:size]
	c.chunk = c.chunk[size:]
	return out
}

// spills is a Stream's spill arrays, a pool per list element type.
type spills struct {
	intervals spillPool[ival]
	writers   spillPool[writerRec]
	touched   spillPool[int]
	ownWrites spillPool[ownWrite]
}
