package viper

import "drftest/internal/mem"

// msgPool recycles the protocol-layer message structs that flow
// between a system's TCPs and TCCs, and owns the system's shared
// mem.LinePool for the payloads they carry, so the steady-state
// load/store/atomic paths allocate nothing and line data crosses the
// system by reference. The simulation is single-threaded, so plain
// stacks suffice.
//
// Safety model: every get falls back to allocation when the pool is
// empty, so a message that is never released (a stalled fault path, a
// controller variant that does not recycle) merely leaks — only a
// release while the object is still referenced can corrupt, and each
// release point is chosen where the object is provably dead (see
// FromTCP / onWBAck / TCC.send). Payload lines carry their own
// refcounts and epoch stamps (mem.Line), so a premature recycle of a
// line trips the delivery-side epoch check.
type msgPool struct {
	lineSize int
	tcpMsgs  []*tcpMsg
	tccMsgs  []*tccMsg
	// lines is the shared payload pool; handles flow through messages,
	// write-combining buffers, TBEs, the memory controller and the
	// directory, and release back here from any of them.
	lines *mem.LinePool

	// Mid-run checkpoint support. Pooled message structs are recycled
	// and overwritten, so a checkpoint must save the contents of every
	// struct that could be live — which, once tracking is on, is
	// exactly the set allocated since enableTracking drained the free
	// stacks. Registration happens only on the allocation fallback, so
	// the steady-state get/put paths stay branch-one, and with
	// tracking off (campaigns, plain runs) the registries never grow.
	// The line pool keeps its own always-on registry and is snapshotted
	// alongside.
	track  bool
	allTCP []*tcpMsg
	allTCC []*tccMsg
}

func newMsgPool(lineSize int, lines *mem.LinePool) *msgPool {
	return &msgPool{lineSize: lineSize, lines: lines}
}

// enableTracking turns on checkpoint registration. The message free
// stacks are drained first (dropped to GC) so every struct live during
// the tracked run is allocation-registered; the line pool flips to
// snapshot-capable in place (its registry is always on).
func (p *msgPool) enableTracking() {
	p.track = true
	p.tcpMsgs, p.tccMsgs = nil, nil
	p.lines.EnableTracking()
}

// reset force-reclaims the payload pool. Message structs in flight at
// reset time (early-stopped runs) leak to the GC exactly as before —
// their free stacks survive — but every payload line returns to
// service, so campaign steady states stay allocation-free even across
// faulting seeds. Only valid once the owning kernel has been reset.
func (p *msgPool) reset() {
	p.lines.Reset()
}

func (p *msgPool) getTCPMsg() *tcpMsg {
	if n := len(p.tcpMsgs); n > 0 {
		m := p.tcpMsgs[n-1]
		p.tcpMsgs[n-1] = nil
		p.tcpMsgs = p.tcpMsgs[:n-1]
		return m
	}
	m := &tcpMsg{}
	if p.track {
		p.allTCP = append(p.allTCP, m)
	}
	return m
}

// putTCPMsg releases m along with the payload reference it still
// holds, if any (a WrVicBlk that handed its payload to the backend has
// already cleared the field).
func (p *msgPool) putTCPMsg(m *tcpMsg) {
	if m.payload != nil {
		m.payload.Release()
	}
	*m = tcpMsg{}
	p.tcpMsgs = append(p.tcpMsgs, m)
}

func (p *msgPool) getTCCMsg() *tccMsg {
	if n := len(p.tccMsgs); n > 0 {
		m := p.tccMsgs[n-1]
		p.tccMsgs[n-1] = nil
		p.tccMsgs = p.tccMsgs[:n-1]
		return m
	}
	m := &tccMsg{}
	if p.track {
		p.allTCC = append(p.allTCC, m)
	}
	return m
}

// putTCCMsg releases m along with its fill payload reference.
func (p *msgPool) putTCCMsg(m *tccMsg) {
	if m.payload != nil {
		m.payload.Release()
	}
	*m = tccMsg{}
	p.tccMsgs = append(p.tccMsgs, m)
}

// poolSnapshot captures the contents of every tracked message struct,
// the message free stacks, and the full line-pool state (contents,
// refcounts, free order). Structs and lines referenced by live
// protocol state (link queues, TBEs, stall queues, write-through
// buffers, memctrl queues) are restored in place, so all the pointers
// those structures hold stay valid after a restore.
type poolSnapshot struct {
	tcpContents []tcpMsg
	tccContents []tccMsg
	freeTCP     []*tcpMsg
	freeTCC     []*tccMsg
	lines       *mem.LinePoolSnapshot
}

// snapshotInto captures every registered object's contents, refilling
// s (nil allocates). Only valid with tracking enabled — without it the
// live set is unknown.
func (p *msgPool) snapshotInto(s *poolSnapshot) *poolSnapshot {
	if s == nil {
		s = &poolSnapshot{}
	}
	s.tcpContents = s.tcpContents[:0]
	for _, m := range p.allTCP {
		s.tcpContents = append(s.tcpContents, *m)
	}
	s.tccContents = s.tccContents[:0]
	for _, m := range p.allTCC {
		s.tccContents = append(s.tccContents, *m)
	}
	s.freeTCP = append(s.freeTCP[:0], p.tcpMsgs...)
	s.freeTCC = append(s.freeTCC[:0], p.tccMsgs...)
	s.lines = p.lines.SnapshotInto(s.lines)
	return s
}

// restore writes every registered object's captured contents back and
// rebuilds the free stacks. Objects registered after the snapshot was
// taken did not exist then; they are zeroed and parked on the free
// stacks (pooled objects are interchangeable — identity only matters
// for objects the restored state actually references, which are all
// snapshot-era).
func (p *msgPool) restore(s *poolSnapshot) {
	for i, m := range p.allTCP {
		if i < len(s.tcpContents) {
			*m = s.tcpContents[i]
		} else {
			*m = tcpMsg{}
		}
	}
	for i, m := range p.allTCC {
		if i < len(s.tccContents) {
			*m = s.tccContents[i]
		} else {
			*m = tccMsg{}
		}
	}
	p.tcpMsgs = append(p.tcpMsgs[:0], s.freeTCP...)
	p.tcpMsgs = append(p.tcpMsgs, p.allTCP[len(s.tcpContents):]...)
	p.tccMsgs = append(p.tccMsgs[:0], s.freeTCC...)
	p.tccMsgs = append(p.tccMsgs, p.allTCC[len(s.tccContents):]...)
	p.lines.Restore(s.lines)
}
