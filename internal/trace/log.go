package trace

// chunkLen is the rolling log's chunk size in entries: the most a
// Snapshot or Restore ever copies, and the granularity at which a log
// and its snapshots share history.
const chunkLen = 64

// chunk is chunkLen consecutive entries. Once a snapshot references a
// chunk it is shared — immutable for good — and a log that comes
// round to it again writes into a fresh chunk instead.
type chunk[T any] struct {
	e      [chunkLen]T
	shared bool
}

// Log is a rolling log of the last capacity entries of type T, the
// one storage and snapshot implementation behind Ring and the tester's
// core.EventLog. Entry number i (counting every Append from 0) lives
// in chunk i/chunkLen, and chunk c occupies slot c mod len(chunks);
// one slot more than the capacity spans keeps the whole retained
// window addressable whatever its alignment. The zero Log has capacity
// zero and must not be appended to.
type Log[T any] struct {
	capacity int
	total    uint64
	chunks   []*chunk[T]
	// cur is the open chunk, number total/chunkLen, while it is partly
	// filled; it is always private. At a chunk boundary the next
	// Append opens one.
	cur *chunk[T]
}

// Init sizes the log to hold the last capacity entries; all chunks are
// allocated here, so Append allocates only after a snapshot.
func (l *Log[T]) Init(capacity int) {
	*l = Log[T]{}
	if capacity <= 0 {
		return
	}
	l.capacity = capacity
	slab := make([]chunk[T], (capacity+chunkLen-1)/chunkLen+1)
	l.chunks = make([]*chunk[T], len(slab))
	for i := range slab {
		l.chunks[i] = &slab[i]
	}
}

// Cap returns the number of entries the log retains.
func (l *Log[T]) Cap() int { return l.capacity }

// Total returns how many entries were ever appended.
func (l *Log[T]) Total() uint64 { return l.total }

// Len returns how many entries the log currently holds.
func (l *Log[T]) Len() int {
	if l.total < uint64(l.capacity) {
		return int(l.total)
	}
	return l.capacity
}

// Reset empties the log, keeping its chunks.
func (l *Log[T]) Reset() { l.total = 0 }

// Append records one entry.
func (l *Log[T]) Append(e T) {
	off := l.total % chunkLen
	if off == 0 {
		l.cur = l.private(l.total / chunkLen)
	}
	l.cur.e[off] = e
	l.total++
}

// private returns the chunk in chunk number c's slot, replacing it
// first if it is shared.
func (l *Log[T]) private(c uint64) *chunk[T] {
	slot := c % uint64(len(l.chunks))
	if l.chunks[slot].shared {
		l.chunks[slot] = new(chunk[T])
	}
	return l.chunks[slot]
}

// Last returns the most recent n entries (fewer when the log holds
// fewer), oldest first, in a fresh slice.
func (l *Log[T]) Last(n int) []T {
	if held := l.Len(); n > held {
		n = held
	}
	if n <= 0 {
		return nil
	}
	out := make([]T, 0, n)
	slots := uint64(len(l.chunks))
	for i := l.total - uint64(n); i < l.total; i++ {
		out = append(out, l.chunks[i/chunkLen%slots].e[i%chunkLen])
	}
	return out
}

// LogSnapshot captures a log's retained window: the sealed chunks by
// pointer, the open chunk's filled prefix by copy.
type LogSnapshot[T any] struct {
	capacity int
	total    uint64
	sealed   []*chunk[T] // oldest first, ending at chunk total/chunkLen-1
	open     []T
}

// SnapshotInto captures the log's state so a later Restore resumes
// recording exactly where it left off, refilling s — a snapshot the
// caller knows is dead — or a fresh one when s is nil. The cost is one
// pointer per retained chunk plus the open chunk's prefix, whatever
// the capacity.
func (l *Log[T]) SnapshotInto(s *LogSnapshot[T]) *LogSnapshot[T] {
	if s == nil {
		s = &LogSnapshot[T]{}
	}
	s.capacity, s.total = l.capacity, l.total
	s.sealed, s.open = s.sealed[:0], s.open[:0]
	slots := uint64(len(l.chunks))
	for c := (l.total - uint64(l.Len())) / chunkLen; c < l.total/chunkLen; c++ {
		ch := l.chunks[c%slots]
		ch.shared = true
		s.sealed = append(s.sealed, ch)
	}
	if off := l.total % chunkLen; off != 0 {
		s.open = append(s.open, l.cur.e[:off]...)
	}
	return s
}

// Restore reinstates a snapshot taken from a log of the same capacity
// — this one or another. The snapshot stays valid: its chunks are
// adopted as shared and only its open prefix is copied.
func (l *Log[T]) Restore(s *LogSnapshot[T]) {
	if s.capacity != l.capacity {
		panic("trace: Restore with mismatched log capacity")
	}
	slots := uint64(len(l.chunks))
	first := s.total/chunkLen - uint64(len(s.sealed))
	for i, ch := range s.sealed {
		l.chunks[(first+uint64(i))%slots] = ch
	}
	if len(s.open) > 0 {
		l.cur = l.private(s.total / chunkLen)
		copy(l.cur.e[:], s.open)
	}
	l.total = s.total
}
