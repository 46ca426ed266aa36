package viper

import (
	"fmt"

	"drftest/internal/mem"
)

// reqKind tags TCP→TCC traffic.
type reqKind uint8

const (
	msgRdBlk reqKind = iota
	msgWrVicBlk
	msgAtomic
)

func (k reqKind) String() string {
	switch k {
	case msgRdBlk:
		return "RdBlk"
	case msgWrVicBlk:
		return "WrVicBlk"
	case msgAtomic:
		return "Atomic"
	}
	return "?"
}

// tcpMsg is a request from an L1 (TCP) to the L2 (TCC).
type tcpMsg struct {
	kind reqKind
	// off is a WrVicBlk's stored word, as its offset in the line, and
	// thread the thread that stored it; the ackWB echoes both. The
	// store's request is answered when the L1 accepts it, so the issuer
	// may have reused it by the time the ack arrives.
	off    uint32
	thread int32
	cu     int
	line   mem.Addr
	// payload is the WrVicBlk write-through data: a borrowed line
	// handle (data + per-byte mask of the written bytes). The message
	// owns one reference, taken at send time and transferred onward
	// (to the backend write) or released when the message dies.
	payload *mem.Line
	// payloadEpoch is payload's epoch at send time; consumption
	// re-checks it so a refcount bug that recycles the line mid-flight
	// trips immediately instead of corrupting silently.
	payloadEpoch uint64
	// req is the core request that triggered the message: an Atomic's
	// ack answers it, and for RdBlk it is the first coalesced load
	// (used in logs only). A WrVicBlk carries none (see off).
	req *mem.Request
}

// setPayload attaches a line handle (transferring the caller's
// reference to the message) and stamps its epoch.
func (m *tcpMsg) setPayload(l *mem.Line) {
	m.payload = l
	m.payloadEpoch = l.Epoch()
}

// checkPayload is the delivery-side half of the epoch handshake.
func (m *tcpMsg) checkPayload() {
	if m.payload.Epoch() != m.payloadEpoch {
		panic(fmt.Sprintf("viper: %s payload for %#x recycled in flight (epoch %d, stamped %d)",
			m.kind, uint64(m.line), m.payload.Epoch(), m.payloadEpoch))
	}
}

// ackKind tags TCC→TCP traffic.
type ackKind uint8

const (
	ackFill   ackKind = iota // TCC_Ack carrying line data
	ackAtomic                // TCC_Ack carrying an atomic's old value
	ackWB                    // TCC_AckWB write completion
)

// tccMsg is a response from the L2 (TCC) to an L1 (TCP).
type tccMsg struct {
	kind   ackKind
	off    uint32 // ackWB: the acked WrVicBlk's off
	thread int32  // ackWB: the acked WrVicBlk's thread
	line   mem.Addr
	// payload is the ackFill line contents, shared by reference with
	// the fill's other consumers (the message owns one reference; see
	// tcpMsg.payload for the epoch handshake).
	payload      *mem.Line
	payloadEpoch uint64
	old          uint32 // ackAtomic: pre-add value
	req          *mem.Request
}

func (m *tccMsg) setPayload(l *mem.Line) {
	m.payload = l
	m.payloadEpoch = l.Epoch()
}

func (m *tccMsg) checkPayload() {
	if m.payload.Epoch() != m.payloadEpoch {
		panic(fmt.Sprintf("viper: fill payload for %#x recycled in flight (epoch %d, stamped %d)",
			uint64(m.line), m.payload.Epoch(), m.payloadEpoch))
	}
}
