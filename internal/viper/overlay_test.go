package viper

import (
	"fmt"
	"testing"

	"drftest/internal/mem"
	"drftest/internal/sim"
)

// TestAckedWordLeavesOverlay is the write-through overlay's older
// residue (DESIGN §15.1) as a directed run. On CU 0, thread a stores w1
// and thread b keeps storing w2, a word on the same line, so the line
// always has a write-through in flight. a's store is acked and a
// releases; CU 1 acquires, stores w1 and releases; CU 0 acquires and
// loads w1. The fill carries CU 1's value, and the overlay must not
// paint a's acked, older bytes over it: only words with a store in
// flight, or acked while a fill that may predate them was outstanding,
// belong to the overlay.
func TestAckedWordLeavesOverlay(t *testing.T) {
	for _, tc := range []struct {
		writeBack bool
		jitter    sim.Tick
	}{{false, 0}, {false, 200}, {true, 0}, {true, 200}} {
		t.Run(fmt.Sprintf("wb=%v,jitter=%d", tc.writeBack, tc.jitter), func(t *testing.T) {
			cfg := smallCfg()
			cfg.WriteBackL2 = tc.writeBack
			cfg.RespJitter, cfg.JitterSeed = tc.jitter, 7
			r := newRig(t, cfg)
			const (
				w1, w2, sync     = mem.Addr(0x1000), mem.Addr(0x1004), mem.Addr(0x2000)
				thrA, thrB, thrC = 0, 1, 2
				period           = 20 // b's store cadence, well under a write-through's round trip
			)
			req := func(cu, thread int, op mem.Op, addr mem.Addr, val uint32, acq, rel bool) uint64 {
				r.id++
				q := &mem.Request{ID: r.id, Op: op, Addr: addr, ThreadID: thread, Acquire: acq, Release: rel}
				if op == mem.OpStore {
					q.Data = val
				} else if op == mem.OpAtomic {
					q.Operand = 1
				}
				r.sys.Seqs[cu].Issue(q)
				return r.id
			}
			var aRel, cAcq, cRel, aAcq, load uint64
			done := false
			var streamB func()
			streamB = func() {
				if done {
					return
				}
				req(0, thrB, mem.OpStore, w2, 7, false, false)
				r.k.Schedule(period, streamB)
			}
			r.cl.onResp = func(resp *mem.Response) {
				switch resp.Req.ID {
				case aRel:
					cAcq = req(1, thrC, mem.OpAtomic, sync, 0, true, false)
				case cAcq:
					req(1, thrC, mem.OpStore, w1, 2, false, false)
					cRel = req(1, thrC, mem.OpAtomic, sync, 0, false, true)
				case cRel:
					aAcq = req(0, thrA, mem.OpAtomic, sync, 0, true, false)
				case aAcq:
					load = req(0, thrA, mem.OpLoad, w1, 0, false, false)
				case load:
					done = true
				}
			}
			streamB()
			req(0, thrA, mem.OpStore, w1, 1, false, false)
			aRel = req(0, thrA, mem.OpAtomic, sync, 0, false, true)
			r.run()
			if !done {
				t.Fatal("the sequence did not complete")
			}
			if got := r.resp(t, load).Data; got != 2 {
				t.Fatalf("CU 0's load of w1 after its acquire returned %d; want CU 1's 2 (1 is CU 0's own acked store)", got)
			}
		})
	}
}
