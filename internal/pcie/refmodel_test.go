package pcie

import (
	"fmt"
	"slices"
	"testing"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// This file checks the fabric against a reference computed without the
// event engine: each link is a credit gate in front of a capacity-1
// FIFO wire, and a packet's times follow from max() over what it waits
// for. The fabric must reproduce every packet's delivery instant and
// timing accumulators exactly, whatever events it uses to get there.

// refRetrain is one retraining window: the wire is held for d from at
// (or from when the wire frees, if later).
type refRetrain struct{ at, d simx.Time }

// refHop is the reference model of one link. Packets are served in
// send order: the i-th packet wins a credit once it is sent and the
// (i-credits)-th credit return has happened, then holds the wire for
// its transfer time once the wire is free.
type refHop struct {
	credits  int
	bw       units.BytesPerSec
	prop     simx.Time // propagation delay
	route    simx.Time // the receiver's routing latency (0 for an endpoint)
	free     simx.Time // instant the wire next frees
	returned []simx.Time
	retrains []refRetrain // not yet applied, by start time
}

// refPacket is what the reference predicts for one packet, summed over
// its hops like the Packet accumulators.
type refPacket struct {
	deliver                               simx.Time
	creditWait, wireWait, wire, routeTime simx.Time
}

// serve advances pkt, sent at s with the given payload, over the hop
// and returns its credit-win instant and its arrival instant at the
// receiver (routing latency included). The caller appends the packet's
// credit-return instant to returned once it is known.
func (h *refHop) serve(p *refPacket, s simx.Time, payload units.Bytes) (won, arrive simx.Time) {
	won = s
	if i := len(h.returned); i >= h.credits {
		r := slices.Clone(h.returned)
		slices.Sort(r)
		won = max(won, r[i-h.credits])
	}
	// A window opened at or before the credit win holds the wire first.
	for len(h.retrains) > 0 && h.retrains[0].at <= won {
		h.free = max(h.free, h.retrains[0].at) + h.retrains[0].d
		h.retrains = h.retrains[1:]
	}
	start := max(won, h.free)
	xfer := units.TransferTime(payload+TLPOverheadBytes, h.bw)
	h.free = start + xfer
	p.creditWait += won - s
	p.wireWait += start - won
	p.wire += xfer
	p.routeTime += h.route
	return won, h.free + h.prop + h.route
}

// refSender fires scheduled sends and retrains from engine events.
// Retrains are scheduled before sends, so at a shared instant the
// window opens first, which is the order refHop.serve assumes.
type refSender struct {
	link     *Link // every packet enters here
	pkts     []*Packet
	retrains []refRetrain
	rlinks   []*Link
}

const refRetrainArg = 1 << 32

func (s *refSender) OnEvent(arg uint64) {
	if arg >= refRetrainArg {
		k := arg - refRetrainArg
		s.rlinks[k].Retrain(s.retrains[k].d)
		return
	}
	s.link.Send(s.pkts[arg], nil)
}

// refSink records each packet's arrival instant and returns the
// link's credit after that packet's hold time.
type refSink struct {
	eng     *simx.Engine
	from    *Link
	hold    []simx.Time // by packet ID
	arrived map[uint64]simx.Time
}

func (s *refSink) Receive(pkt *Packet, from *Link) {
	s.from = from
	s.arrived[pkt.ID] = s.eng.Now()
	s.eng.ScheduleEvent(s.hold[pkt.ID], s, 0)
}

func (s *refSink) OnEvent(uint64) { s.from.ReturnCredit() }

// refScenario is one seeded workload for a chain of links.
type refScenario struct {
	sends    []simx.Time
	payloads []units.Bytes
	hold     []simx.Time
	credits  [2]int
	windows  [2][]refRetrain
}

func newRefScenario(rng *simx.RNG, n int) refScenario {
	var sc refScenario
	sizes := []units.Bytes{0, 64, 512, 4 * units.KiB}
	var t simx.Time
	for i := 0; i < n; i++ {
		t += simx.Time(rng.Intn(400))
		sc.sends = append(sc.sends, t)
		sc.payloads = append(sc.payloads, sizes[rng.Intn(len(sizes))])
		sc.hold = append(sc.hold, simx.Time(rng.Intn(3000)))
	}
	for h := range sc.credits {
		sc.credits[h] = 1 + rng.Intn(4)
		at := simx.Time(0)
		for k := 0; k < 4; k++ {
			at += simx.Time(rng.Intn(int(t)/4 + 1))
			sc.windows[h] = append(sc.windows[h], refRetrain{at, simx.Time(500 + rng.Intn(3000))})
		}
	}
	return sc
}

// schedule queues the scenario's retrains (first) and sends on eng:
// every packet enters on hops[0], windows[h] retrain hops[h].
func (sc refScenario) schedule(eng *simx.Engine, hops [2]*Link, kind Kind) []*Packet {
	snd := &refSender{link: hops[0]}
	for h, ws := range sc.windows {
		for _, w := range ws {
			eng.AtEvent(w.at, snd, refRetrainArg+uint64(len(snd.retrains)))
			snd.retrains = append(snd.retrains, w)
			snd.rlinks = append(snd.rlinks, hops[h])
		}
	}
	for i, s := range sc.sends {
		pkt := &Packet{ID: uint64(i), Kind: kind, Payload: sc.payloads[i]}
		snd.pkts = append(snd.pkts, pkt)
		eng.AtEvent(s, snd, uint64(i))
	}
	return snd.pkts
}

func checkRefPackets(t *testing.T, pkts []*Packet, arrived map[uint64]simx.Time, want []refPacket) {
	t.Helper()
	for i, p := range pkts {
		got := refPacket{arrived[p.ID], p.CreditWait, p.WireWait, p.WireTime, p.RouteTime}
		if got != want[i] {
			t.Fatalf("packet %d: fabric %+v, reference %+v", i, got, want[i])
		}
	}
}

// TestLinkMatchesReference drives one link with seeded sends, delayed
// credit returns and retrain windows.
func TestLinkMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			sc := newRefScenario(simx.NewRNG(seed), 300)
			eng := simx.NewEngine()
			dst := &refSink{eng: eng, hold: sc.hold, arrived: map[uint64]simx.Time{}}
			const bw, prop = 4 * units.GBps, 100 * simx.Nanosecond
			l := NewLink(eng, "l", bw, prop, sc.credits[0], dst)
			sc.windows[1] = nil
			pkts := sc.schedule(eng, [2]*Link{l, nil}, MemWrite)
			eng.Run()

			hop := refHop{credits: sc.credits[0], bw: bw, prop: prop, retrains: sc.windows[0]}
			want := make([]refPacket, len(pkts))
			var stall simx.Time
			for i := range pkts {
				p := &want[i]
				won, arrive := hop.serve(p, sc.sends[i], sc.payloads[i])
				p.deliver = arrive
				hop.returned = append(hop.returned, arrive+sc.hold[i])
				stall += won - sc.sends[i]
			}
			checkRefPackets(t, pkts, dst.arrived, want)
			if l.Packets() != uint64(len(pkts)) || l.CreditStallNS() != stall || l.PendingSends() != 0 {
				t.Errorf("link: %d packets, stall %v, %d pending; want %d, %v, 0",
					l.Packets(), l.CreditStallNS(), l.PendingSends(), len(pkts), stall)
			}
		})
	}
}

// TestFabricChainMatchesReference drives the two-hop chains a host
// request and its completion cross: RC port -> switch -> endpoint, and
// endpoint -> switch -> RC. The switch returns the ingress credit when
// the egress link accepts the packet, and the RC returns its port's
// credit on delivery, so credit stalls propagate hop to hop.
func TestFabricChainMatchesReference(t *testing.T) {
	const (
		swRoute, rcRoute = 150 * simx.Nanosecond, 200 * simx.Nanosecond
		prop             = 100 * simx.Nanosecond
		epBW, swBW       = 4 * units.GBps, 16 * units.GBps
	)
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			eng := simx.NewEngine()
			rcArrived := map[uint64]simx.Time{}
			rc := NewRootComplex(eng, rcRoute, func(*Packet) int { return 0 },
				func(p *Packet) { rcArrived[p.ID] = eng.Now() })
			sw := NewSwitch("sw", swRoute, func(p *Packet) int {
				if p.Kind == Completion {
					return Upstream
				}
				return 0
			})
			down := newRefScenario(simx.NewRNG(seed), 300)
			up := newRefScenario(simx.NewRNG(seed+1000), 300)
			ep := &refSink{eng: eng, hold: down.hold, arrived: map[uint64]simx.Time{}}

			rcPort := NewLink(eng, "rc->sw", swBW, prop, down.credits[0], sw)
			rc.AddPort(rcPort)
			epDown := NewLink(eng, "sw->ep", epBW, prop, down.credits[1], ep)
			sw.AddDownstream(epDown)
			epUp := NewLink(eng, "ep->sw", epBW, prop, up.credits[0], sw)
			swUp := NewLink(eng, "sw->rc", swBW, prop, up.credits[1], rc)
			sw.SetUpstream(swUp)

			downPkts := down.schedule(eng, [2]*Link{rcPort, epDown}, MemWrite)
			upPkts := up.schedule(eng, [2]*Link{epUp, swUp}, Completion)
			eng.Run()

			a := refHop{credits: down.credits[0], bw: swBW, prop: prop, route: swRoute, retrains: down.windows[0]}
			b := refHop{credits: down.credits[1], bw: epBW, prop: prop, retrains: down.windows[1]}
			want := make([]refPacket, len(downPkts))
			for i := range downPkts {
				p := &want[i]
				_, atSwitch := a.serve(p, down.sends[i], down.payloads[i])
				accepted, atEP := b.serve(p, atSwitch, down.payloads[i])
				p.deliver = atEP
				a.returned = append(a.returned, accepted)
				b.returned = append(b.returned, atEP+down.hold[i])
			}
			checkRefPackets(t, downPkts, ep.arrived, want)

			c := refHop{credits: up.credits[0], bw: epBW, prop: prop, route: swRoute, retrains: up.windows[0]}
			d := refHop{credits: up.credits[1], bw: swBW, prop: prop, route: rcRoute, retrains: up.windows[1]}
			want = make([]refPacket, len(upPkts))
			for i := range upPkts {
				p := &want[i]
				_, atSwitch := c.serve(p, up.sends[i], up.payloads[i])
				accepted, atHost := d.serve(p, atSwitch, up.payloads[i])
				p.deliver = atHost
				c.returned = append(c.returned, accepted)
				d.returned = append(d.returned, atHost)
			}
			checkRefPackets(t, upPkts, rcArrived, want)
		})
	}
}
