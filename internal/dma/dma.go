// Package dma models the DMA engine that application runs use to move
// buffers in and out of the heterogeneous system.
//
// Neither the GPU tester nor the CPU tester models DMA, which is why
// the paper's Fig. 10 finds a handful of directory transitions that
// only application-based testing activates. This engine exists to
// reproduce exactly that effect.
package dma

import (
	"drftest/internal/directory"
	"drftest/internal/mem"
	"drftest/internal/sim"
)

// Engine issues line-granularity reads and writes through the system
// directory, like a copy engine staging kernel buffers.
type Engine struct {
	k        *sim.Kernel
	dir      *directory.Directory
	port     int // the engine's directory port
	lineSize int

	reads, writes uint64
	inflight      int
	free          []*transfer
}

// New builds a DMA engine over dir.
func New(k *sim.Kernel, dir *directory.Directory, lineSize int) *Engine {
	e := &Engine{k: k, dir: dir, lineSize: lineSize}
	e.port = dir.AttachDMA(e)
	return e
}

// Reset returns the engine to its just-built state: stats and the
// in-flight count are zeroed, and transfers still in flight are dropped
// (pooled ones are kept). The kernel must be reset first: its pending
// events reference the dropped transfers.
func (e *Engine) Reset() {
	e.reads, e.writes, e.inflight = 0, 0, 0
}

// Stats returns (reads, writes) completed.
func (e *Engine) Stats() (reads, writes uint64) { return e.reads, e.writes }

// Inflight returns the number of outstanding DMA operations.
func (e *Engine) Inflight() int { return e.inflight }

// CopyIn writes `lines` consecutive cache lines starting at base,
// filling them with a recognizable pattern, one op every interval
// ticks. done (may be nil) runs after the last write completes.
func (e *Engine) CopyIn(base mem.Addr, lines int, interval sim.Tick, done func()) {
	e.run(base, lines, interval, true, done)
}

// CopyOut reads `lines` consecutive cache lines starting at base.
func (e *Engine) CopyOut(base mem.Addr, lines int, interval sim.Tick, done func()) {
	e.run(base, lines, interval, false, done)
}

// transfer is one CopyIn/CopyOut in flight: pooled, with its step
// prebound and (for writes) one pattern buffer reused line to line, so
// a transfer allocates nothing per line. It is its line ops' ctx at the
// directory. Buffer reuse is safe because the directory copies the
// borrowed bytes on arrival.
type transfer struct {
	e        *Engine
	line     mem.Addr
	left     int
	interval sim.Tick
	write    bool
	done     func()
	buf      []byte

	stepFn func()
}

func (e *Engine) getXfer() *transfer {
	if n := len(e.free); n > 0 {
		t := e.free[n-1]
		e.free = e.free[:n-1]
		return t
	}
	t := &transfer{e: e}
	t.stepFn = t.step
	return t
}

func (e *Engine) putXfer(t *transfer) {
	t.line, t.left, t.interval, t.write, t.done = 0, 0, 0, false, nil
	e.free = append(e.free, t)
}

func (e *Engine) run(base mem.Addr, lines int, interval sim.Tick, write bool, done func()) {
	if lines <= 0 {
		if done != nil {
			e.k.Schedule(0, done)
		}
		return
	}
	t := e.getXfer()
	t.line = mem.LineAddr(base, e.lineSize)
	t.left, t.interval, t.write, t.done = lines, interval, write, done
	e.inflight++
	t.issue()
}

func (t *transfer) issue() {
	e := t.e
	if t.write {
		if t.buf == nil {
			t.buf = make([]byte, e.lineSize)
		}
		for i := range t.buf {
			t.buf[i] = byte(uint64(t.line)>>6 + uint64(i))
		}
		e.dir.DMAWrite(e.port, t.line, t.buf, t)
		return
	}
	e.dir.DMARead(e.port, t.line, t)
}

// DMADone implements directory.DMAPort: one line op of the transfer
// ctx completed.
func (e *Engine) DMADone(_ []byte, ctx any) {
	t := ctx.(*transfer)
	if t.write {
		e.writes++
	} else {
		e.reads++
	}
	t.finish()
}

// finish completes one line: the last line runs done synchronously
// (after the transfer is recycled — done may start another transfer);
// otherwise the next line is issued after the inter-op interval. The
// in-flight count drops across the gap, as it always has: Inflight
// counts issued-but-incomplete line ops, not active transfers.
func (t *transfer) finish() {
	e := t.e
	e.inflight--
	if t.left == 1 {
		done := t.done
		e.putXfer(t)
		if done != nil {
			done()
		}
		return
	}
	e.k.Schedule(t.interval, t.stepFn)
}

func (t *transfer) step() {
	t.line += mem.Addr(t.e.lineSize)
	t.left--
	t.e.inflight++
	t.issue()
}
