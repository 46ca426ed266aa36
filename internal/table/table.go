// Package table is the keyed container of the simulated state: a small
// open-addressing hash table from an integer key to a value, built for
// what the event loop and a snapshot cut do with it. A lookup is one
// multiply and a short linear probe; iteration is in slot order, so it
// is deterministic; and a copy of the whole table is one copy of its
// slot array, no hashing.
//
// Keys are line addresses (multiples of the line size) and small dense
// IDs, so the hash is multiplicative and takes the product's high bits.
// Deletion shifts the following cluster back instead of leaving
// tombstones: every key stays reachable from its home slot without
// crossing a free slot, and a table that churns does not degrade.
//
// The zero value is an empty table and allocates nothing until the
// first insert. Pointers returned by Ptr and Slot, and the ones Each
// hands out, point into the slot array: they die at the next insert or
// delete.
package table

import "math/bits"

// Key is any integer type a table can be keyed by.
type Key interface {
	~int | ~uint32 | ~uint64
}

type slot[K Key, V any] struct {
	key  K
	used bool
	val  V
}

// Table maps K to V. Free slots are all-zero.
type Table[K Key, V any] struct {
	slots []slot[K, V] // power-of-two length, or nil
	n     int
	shift uint8 // 64 - log2(len(slots))
}

// minSlots is the slot count the first insert allocates.
const minSlots = 8

func shiftFor(slots int) uint8 { return uint8(64 - bits.TrailingZeros(uint(slots))) }

func (t *Table[K, V]) home(k K) int {
	return int(uint64(k) * 0x9E3779B97F4A7C15 >> t.shift)
}

// Len returns the number of keys.
func (t *Table[K, V]) Len() int { return t.n }

// find returns the index of k's slot, -1 when k is absent.
func (t *Table[K, V]) find(k K) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		if s := &t.slots[i]; !s.used {
			return -1
		} else if s.key == k {
			return i
		}
	}
}

// Get returns k's value and whether k is present.
func (t *Table[K, V]) Get(k K) (v V, ok bool) {
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	return v, false
}

// Ptr returns a pointer to k's value, nil when k is absent.
func (t *Table[K, V]) Ptr(k K) *V {
	if i := t.find(k); i >= 0 {
		return &t.slots[i].val
	}
	return nil
}

// Slot returns a pointer to k's value, inserting k with the zero value
// when it is absent. The table grows at three quarters full, so a probe
// always ends at a free slot.
func (t *Table[K, V]) Slot(k K) *V {
	if len(t.slots) == 0 {
		t.rehash(minSlots)
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		switch {
		case !s.used:
			if (t.n+1)*4 > len(t.slots)*3 {
				t.rehash(2 * len(t.slots))
				return t.Slot(k)
			}
			s.key, s.used = k, true
			t.n++
			return &s.val
		case s.key == k:
			return &s.val
		}
	}
}

// Put sets k's value.
func (t *Table[K, V]) Put(k K, v V) { *t.Slot(k) = v }

// rehash moves every entry into a fresh array of n slots.
func (t *Table[K, V]) rehash(n int) {
	old := t.slots
	t.slots, t.n, t.shift = make([]slot[K, V], n), 0, shiftFor(n)
	for i := range old {
		if old[i].used {
			*t.Slot(old[i].key) = old[i].val
		}
	}
}

// Delete removes k and reports whether it was present. The entries that
// follow k in its cluster move back over the hole when that keeps them
// at or after their home slot.
func (t *Table[K, V]) Delete(k K) bool {
	hole := t.find(k)
	if hole < 0 {
		return false
	}
	mask := len(t.slots) - 1
	for i := (hole + 1) & mask; t.slots[i].used; i = (i + 1) & mask {
		// Distances are cyclic: the entry at i may fill the hole when
		// its home lies no later than the hole on the way to i.
		if (i-t.home(t.slots[i].key))&mask >= (i-hole)&mask {
			t.slots[hole] = t.slots[i]
			hole = i
		}
	}
	t.slots[hole] = slot[K, V]{}
	t.n--
	return true
}

// Clear empties the table and keeps its slot array. An empty table's
// slots are already zero, so clearing one costs nothing.
func (t *Table[K, V]) Clear() {
	if t.n != 0 {
		clear(t.slots)
		t.n = 0
	}
}

// Each calls f for every entry in slot order — an order that depends on
// the keys and on the table's history, so nothing simulated may depend
// on it. f may change the value; it must not insert or delete.
func (t *Table[K, V]) Each(f func(k K, v *V)) {
	if t.n == 0 {
		return
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.used {
			f(s.key, &s.val)
		}
	}
}

// CopyFrom makes t hold exactly src's entries, values copied shallowly.
// Between slot arrays of one size the copy is a single memmove. A
// smaller t takes an array of src's size; a larger t keeps its own, and
// so never has to regrow to a size it once had, and takes src's entries
// one by one. An empty src costs at most a clear, whatever the sizes: a
// copy of it never allocates. t may be recycled storage that has been
// scribbled over: of its own state CopyFrom trusts the slot array's
// length and, to leave an already empty table alone, a zero count.
func (t *Table[K, V]) CopyFrom(src *Table[K, V]) {
	if src.n == 0 || len(t.slots) > len(src.slots) {
		t.Clear()
		t.shift = shiftFor(len(t.slots))
		src.Each(func(k K, v *V) { *t.Slot(k) = *v })
		return
	}
	if len(t.slots) < len(src.slots) {
		t.slots = make([]slot[K, V], len(src.slots))
	}
	copy(t.slots, src.slots)
	t.n, t.shift = src.n, src.shift
}
