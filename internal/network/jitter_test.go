package network

import (
	"fmt"
	"slices"
	"testing"

	"drftest/internal/rng"
	"drftest/internal/sim"
)

// closureLink is the jittered SendMsg this package used to have, kept
// as the oracle: one closure per message, scheduled straight onto the
// kernel, so each event carries its own message and no queue pairing
// can go wrong.
type closureLink struct {
	k               *sim.Kernel
	latency, jitter sim.Tick
	rnd             *rng.PCG
	unit            uint32
}

func (l *closureLink) SetJitter(jitter sim.Tick) { l.jitter = jitter }

func (l *closureLink) SendMsgLine(fn func(any), arg any, line uint64) {
	d := l.latency
	if l.jitter > 0 {
		d += sim.Tick(l.rnd.Intn(int(l.jitter) + 1))
	}
	l.k.ScheduleTagged(d, sim.MakeLineTag(sim.CompLink, l.unit, line), func() { fn(arg) })
}

type msgSender interface {
	SetJitter(jitter sim.Tick)
	SendMsgLine(fn func(any), arg any, line uint64)
}

// randomChooser picks any candidate: per-unit order is all the kernel
// still guarantees under it.
type randomChooser struct{ rnd *rng.PCG }

func (c randomChooser) Choose(_ sim.Tick, cands []sim.Enabled) int { return c.rnd.Intn(len(cands)) }

// jitterProgram is a random send/deliver program over two jittered
// links sharing one jitter stream: bursts of sends at random ticks,
// deliveries that sometimes send again (a response provoking a
// request, as the controllers do), and now and then a link's window
// closed or reopened under its queued messages. log records every
// delivery as "link:message@tick" in firing order.
type jitterProgram struct {
	k        *sim.Kernel
	links    [2]msgSender
	jrnd     *rng.PCG // the links' shared jitter stream
	prog     *rng.PCG // the program's own choices
	ids      [4096]int
	next     int
	handlers [2]func(any)
	log      []string
}

const (
	progLatency = 3
	progJitter  = 9
	progMidTick = 200
)

// newJitterProgram builds the program over closure-oracle links or the
// product's, optionally under a chooser that reorders all it may.
func newJitterProgram(seed uint64, oracle, chosen bool) *jitterProgram {
	p := &jitterProgram{k: sim.NewKernel(), jrnd: rng.New(seed, 0x717), prog: rng.New(seed, 0x11E7)}
	if chosen {
		p.k.SetChooser(randomChooser{rng.New(seed, 0xC005)})
	}
	for li := range p.links {
		li := li
		if oracle {
			p.links[li] = &closureLink{k: p.k, latency: progLatency, jitter: progJitter, rnd: p.jrnd, unit: p.k.NewUnit()}
		} else {
			p.links[li] = NewJitterLink(p.k, "jit", progLatency, progJitter, p.jrnd)
		}
		p.handlers[li] = func(a any) {
			p.log = append(p.log, fmt.Sprintf("%d:%d@%d", li, *a.(*int), p.k.Now()))
			if p.prog.Bool(0.3) {
				p.send()
			}
		}
	}
	for burst := 0; burst < 40; burst++ {
		p.k.ScheduleAt(sim.Tick(p.prog.Intn(2*progMidTick)), func() {
			for n := p.prog.Intn(12); n >= 0; n-- {
				p.send()
			}
		})
	}
	return p
}

func (p *jitterProgram) send() {
	if p.next == len(p.ids) {
		return
	}
	li := p.prog.Intn(2)
	if p.prog.Bool(0.05) {
		p.links[li].SetJitter(sim.Tick(p.prog.Intn(2) * progJitter))
	}
	p.ids[p.next] = p.next
	p.links[li].SendMsgLine(p.handlers[li], &p.ids[p.next], uint64(p.prog.Intn(4))*64)
	p.next++
}

// TestJitterLinkMatchesClosureOracle: a jittered link's queue hands
// messages out exactly as per-message closures would — the same
// message at the same tick in the same order — under the default event
// loop and under a chooser; and restoring a mid-program cut replays
// the identical tail.
func TestJitterLinkMatchesClosureOracle(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, chosen := range []bool{false, true} {
			oracle := newJitterProgram(seed, true, chosen)
			oracle.k.RunUntilIdle()
			if len(oracle.log) < 200 {
				t.Fatalf("seed %d: program delivered only %d messages", seed, len(oracle.log))
			}

			p := newJitterProgram(seed, false, chosen)
			if chosen {
				// A chooser's own state is not part of a kernel cut; the
				// chosen runs check order only.
				p.k.RunUntilIdle()
				if !slices.Equal(p.log, oracle.log) {
					t.Fatalf("seed %d under a chooser: queued link delivered\n%v\nclosure oracle\n%v", seed, p.log, oracle.log)
				}
				continue
			}

			// Cut at the first tick from the midpoint on with messages
			// in flight.
			a, b := p.links[0].(*Link), p.links[1].(*Link)
			for tick := sim.Tick(progMidTick); len(a.msgQ)-a.msgHead+len(b.msgQ)-b.msgHead < 2; tick++ {
				if p.k.Run(tick); p.k.Pending() == 0 {
					t.Fatalf("seed %d: never two messages in flight after the midpoint", seed)
				}
			}
			ks, sa, sb := p.k.Snapshot(), a.Snapshot(), b.Snapshot()
			jrnd, prog, next, cut := *p.jrnd, *p.prog, p.next, len(p.log)
			ja, jb := a.jitter, b.jitter // config, not part of a link's cut
			for pass := 0; pass < 2; pass++ {
				p.k.RunUntilIdle()
				if !slices.Equal(p.log, oracle.log) {
					t.Fatalf("seed %d pass %d: queued link delivered\n%v\nclosure oracle\n%v", seed, pass, p.log, oracle.log)
				}
				if n := len(a.msgQ) + len(b.msgQ); n != 0 {
					t.Fatalf("seed %d pass %d: %d messages left queued on an idle kernel", seed, pass, n)
				}
				p.k.Restore(ks)
				a.Restore(sa)
				b.Restore(sb)
				*p.jrnd, *p.prog, p.next, p.log = jrnd, prog, next, p.log[:cut]
				a.SetJitter(ja)
				b.SetJitter(jb)
			}
		}
	}
}

// TestJitterLinkResetDropsQueuedMessages is TestLinkResetDropsQueued-
// Messages under jitter.
func TestJitterLinkResetDropsQueuedMessages(t *testing.T) {
	k := sim.NewKernel()
	l := NewJitterLink(k, "reset", 5, 4, rng.New(1, 1))
	delivered := 0
	fn := func(any) { delivered++ }
	l.SendMsg(fn, nil)
	l.SendMsg(fn, nil)
	k.Reset()
	l.Reset()
	l.SendMsg(fn, nil)
	k.RunUntilIdle()
	if delivered != 1 || l.Sent() != 1 {
		t.Fatalf("delivered %d, Sent=%d, want 1 and 1 (pre-reset messages must not leak)", delivered, l.Sent())
	}
}

// TestJitterLinkSteadyStateAllocs: once the link's and the kernel's queues
// have grown to the traffic's peak, a jittered send and its delivery
// allocate nothing.
func TestJitterLinkSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel()
	l := NewJitterLink(k, "jit", 10, 5, rng.New(3, 3))
	fn := func(any) {}
	var arg any = new(int)
	round := func() {
		for i := 0; i < 64; i++ {
			l.SendMsgLine(fn, arg, uint64(i%4)*64)
		}
		k.RunUntilIdle()
	}
	round()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("jittered send+deliver allocates %.2f per 64-message round, want 0", avg)
	}
}
