package pcie

import (
	"testing"
	"testing/quick"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// sink collects delivered packets and returns credits either
// immediately or on demand.
type sink struct {
	pkts    []*Packet
	froms   []*Link
	autoACK bool
}

func (s *sink) Receive(pkt *Packet, from *Link) {
	s.pkts = append(s.pkts, pkt)
	s.froms = append(s.froms, from)
	if s.autoACK {
		from.ReturnCredit()
	}
}

func (s *sink) ackAll() {
	for _, l := range s.froms {
		l.ReturnCredit()
	}
	s.froms = nil
}

func TestKindString(t *testing.T) {
	if MemRead.String() != "MemRd" || MemWrite.String() != "MemWr" ||
		Completion.String() != "Cpl" || Kind(9).String() != "?" {
		t.Error("Kind.String mismatch")
	}
}

func TestTransferTime(t *testing.T) {
	eng := simx.NewEngine()
	l := NewLink(eng, "l", 1_000_000_000, 0, 1, &sink{autoACK: true}) // 1 GB/s
	// 1000 payload + 24 overhead at 1 B/ns = 1024 ns.
	if got := l.TransferTime(1000); got != 1024 {
		t.Errorf("TransferTime(1000) = %v, want 1024", got)
	}
	// Rounding up: 1 byte at 3 B/ns.
	l2 := NewLink(eng, "l2", 3_000_000_000, 0, 1, &sink{autoACK: true})
	if got := l2.TransferTime(0); got != 8 {
		t.Errorf("TransferTime(0) at 3GB/s = %v, want ceil(24/3)=8", got)
	}
}

// TestGen3PagePayloadRegression pins the representative converted path
// of the typed-units refactor: a page-sized payload expressed in
// units.Bytes through the Gen3 lane-bandwidth helper to a wire time.
// Before the refactor the payload and bandwidth were bare ints and a
// pages-for-bytes mixup compiled silently; these exact figures are the
// regression net.
func TestGen3PagePayloadRegression(t *testing.T) {
	if got := Gen3Bandwidth(4 * units.Lane); got != 4_000_000_000 {
		t.Fatalf("Gen3Bandwidth(x4) = %d, want 4e9", got)
	}
	if got := Gen3Bandwidth(16 * units.Lane); got != 16_000_000_000 {
		t.Fatalf("Gen3Bandwidth(x16) = %d, want 16e9", got)
	}
	eng := simx.NewEngine()
	l := NewLink(eng, "ep", Gen3Bandwidth(4*units.Lane), 0, 1, &sink{autoACK: true})
	// One 4 KiB page + 24 B TLP overhead at 4 B/ns: ceil(4120/4) = 1030 ns.
	if got := l.TransferTime(4 * units.KiB); got != 1030*simx.Nanosecond {
		t.Errorf("x4 page transfer = %v, want 1030ns", got)
	}
	// The same page handed to the ONFI side (800 MB/s NV-DDR2) takes
	// 5120 ns — the value nand.Params.PageTransferTime produces; a
	// bytes/pages confusion on either leg breaks one of the two pins.
	if got := units.TransferTime(4*units.KiB, 800_000_000); got != 5120*simx.Nanosecond {
		t.Errorf("ONFI page transfer = %v, want 5120ns", got)
	}
}

func TestLinkDelivery(t *testing.T) {
	eng := simx.NewEngine()
	dst := &sink{autoACK: true}
	l := NewLink(eng, "l", 4_000_000_000, 100, 4, dst) // 4 GB/s, 100ns prop
	pkt := &Packet{ID: 1, Kind: Completion, Payload: 4096}
	accepted := false
	l.Send(pkt, AcceptedFunc(func(*Packet) { accepted = true }))
	eng.Run()

	if !accepted {
		t.Error("accepted callback did not fire")
	}
	if len(dst.pkts) != 1 || dst.pkts[0] != pkt {
		t.Fatalf("delivered %d packets", len(dst.pkts))
	}
	// (4096+24)/4 = 1030 ns wire + 100 ns propagation.
	if eng.Now() != 1130 {
		t.Errorf("delivery at %v, want 1130ns", eng.Now())
	}
	if pkt.WireTime != 1030 {
		t.Errorf("WireTime = %v, want 1030", pkt.WireTime)
	}
	if l.Packets() != 1 || l.Bytes() != 4120 {
		t.Errorf("link stats: %d pkts, %d bytes", l.Packets(), l.Bytes())
	}
}

func TestLinkCreditExhaustion(t *testing.T) {
	eng := simx.NewEngine()
	dst := &sink{} // holds credits
	l := NewLink(eng, "l", 1_000_000_000, 0, 2, dst)
	for i := 0; i < 4; i++ {
		l.Send(&Packet{ID: uint64(i), Payload: 0}, nil)
	}
	eng.Run()
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d with 2 credits, want 2", len(dst.pkts))
	}
	if l.PendingSends() != 2 {
		t.Errorf("PendingSends = %d, want 2", l.PendingSends())
	}
	// Free one entry: exactly one more delivery.
	dst.froms[0].ReturnCredit()
	dst.froms = dst.froms[1:]
	eng.Run()
	if len(dst.pkts) != 3 {
		t.Fatalf("delivered %d after one credit, want 3", len(dst.pkts))
	}
	if l.CreditStallNS() == 0 {
		t.Error("credit stall not accounted")
	}
	if dst.pkts[2].CreditWait == 0 {
		t.Error("packet CreditWait not accounted")
	}
}

func TestCreditOverflowPanics(t *testing.T) {
	eng := simx.NewEngine()
	l := NewLink(eng, "l", 1_000_000_000, 0, 1, &sink{})
	defer func() {
		if recover() == nil {
			t.Error("extra ReturnCredit did not panic")
		}
	}()
	l.ReturnCredit()
}

func TestLinkFIFOUnderCreditPressure(t *testing.T) {
	eng := simx.NewEngine()
	dst := &sink{}
	l := NewLink(eng, "l", 1_000_000_000, 0, 1, dst)
	for i := 0; i < 5; i++ {
		l.Send(&Packet{ID: uint64(i)}, nil)
	}
	eng.Run()
	for len(dst.froms) > 0 {
		dst.ackAll()
		eng.Run()
	}
	if len(dst.pkts) != 5 {
		t.Fatalf("delivered %d, want 5", len(dst.pkts))
	}
	for i, p := range dst.pkts {
		if p.ID != uint64(i) {
			t.Fatalf("delivery order %v broken at %d", p.ID, i)
		}
	}
}

func TestLinkConstructorPanics(t *testing.T) {
	eng := simx.NewEngine()
	for _, fn := range []func(){
		func() { NewLink(eng, "x", 0, 0, 1, &sink{}) },
		func() { NewLink(eng, "x", 1, 0, 0, &sink{}) },
		func() { NewLink(eng, "x", 1, 0, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad link construction did not panic")
				}
			}()
			fn()
		}()
	}
}

// buildSwitchFixture wires host --uplinkToSwitch--> switch --down[i]--> sinks
// and switch --up--> rc sink.
func buildSwitchFixture(eng *simx.Engine, nPorts int, route RouteFunc) (*Switch, []*sink, *sink, *Link) {
	sw := NewSwitch(eng, "sw0", 150, route)
	downSinks := make([]*sink, nPorts)
	for i := 0; i < nPorts; i++ {
		downSinks[i] = &sink{autoACK: true}
		sw.AddDownstream(NewLink(eng, "down", 4_000_000_000, 100, 4, downSinks[i]))
	}
	upSink := &sink{autoACK: true}
	sw.SetUpstream(NewLink(eng, "up", 16_000_000_000, 100, 8, upSink))
	ingress := NewLink(eng, "ingress", 16_000_000_000, 100, 8, sw)
	return sw, downSinks, upSink, ingress
}

func TestSwitchRoutesByAddress(t *testing.T) {
	eng := simx.NewEngine()
	route := func(p *Packet) int {
		if p.Kind == Completion {
			return Upstream
		}
		return int(p.Addr % 4)
	}
	sw, downSinks, upSink, ingress := buildSwitchFixture(eng, 4, route)

	for addr := uint64(0); addr < 8; addr++ {
		ingress.Send(&Packet{ID: addr, Kind: MemRead, Addr: addr}, nil)
	}
	ingress.Send(&Packet{ID: 100, Kind: Completion, Payload: 4096}, nil)
	eng.Run()

	for i, ds := range downSinks {
		if len(ds.pkts) != 2 {
			t.Errorf("port %d got %d packets, want 2", i, len(ds.pkts))
		}
	}
	if len(upSink.pkts) != 1 {
		t.Errorf("upstream got %d packets, want 1", len(upSink.pkts))
	}
	if sw.Forwarded() != 9 {
		t.Errorf("Forwarded = %d, want 9", sw.Forwarded())
	}
}

func TestSwitchRoutingLatencyCharged(t *testing.T) {
	eng := simx.NewEngine()
	_, downSinks, _, ingress := buildSwitchFixture(eng, 1, func(*Packet) int { return 0 })
	pkt := &Packet{Kind: MemRead}
	ingress.Send(pkt, nil)
	eng.Run()
	if len(downSinks[0].pkts) != 1 {
		t.Fatal("packet not delivered")
	}
	if pkt.RouteTime != 150 {
		t.Errorf("RouteTime = %v, want 150", pkt.RouteTime)
	}
}

func TestSwitchStallWhenEgressBlocked(t *testing.T) {
	eng := simx.NewEngine()
	route := func(*Packet) int { return 0 }
	sw := NewSwitch(eng, "sw", 150, route)
	blocked := &sink{} // returns no credits
	sw.AddDownstream(NewLink(eng, "down", 4_000_000_000, 0, 1, blocked))
	ingress := NewLink(eng, "in", 16_000_000_000, 0, 8, sw)

	// First packet takes the only credit; the second stalls inside the
	// switch until we return it.
	p1 := &Packet{ID: 1}
	p2 := &Packet{ID: 2}
	ingress.Send(p1, nil)
	ingress.Send(p2, nil)
	eng.RunFor(10_000)
	if len(blocked.pkts) != 1 {
		t.Fatalf("delivered %d, want 1 while blocked", len(blocked.pkts))
	}
	blocked.froms[0].ReturnCredit()
	blocked.froms = nil
	eng.Run()
	if len(blocked.pkts) != 2 {
		t.Fatalf("second packet never delivered")
	}
	// The stall was credit-bound, so the link accounts it (the switch's
	// holding metric excludes credit waits to avoid double counting).
	if p2.CreditWait == 0 {
		t.Error("stalled packet has zero CreditWait")
	}
	if p2.StallTotal() == 0 {
		t.Error("stalled packet has zero total stall")
	}
	if sw.QueueStallNS() != 0 {
		t.Errorf("switch double-counted credit stall: %v", sw.QueueStallNS())
	}
}

func TestSwitchPanicsWithoutEgress(t *testing.T) {
	eng := simx.NewEngine()
	sw := NewSwitch(eng, "sw", 0, func(*Packet) int { return Upstream })
	defer func() {
		if recover() == nil {
			t.Error("missing upstream link did not panic")
		}
	}()
	sw.Receive(&Packet{}, nil)
	eng.Run()
}

func TestRootComplexInjectAndReceive(t *testing.T) {
	eng := simx.NewEngine()
	var delivered []*Packet
	rc := NewRootComplex(eng, 200, func(p *Packet) int { return int(p.Addr % 2) }, func(p *Packet) { delivered = append(delivered, p) })
	s0, s1 := &sink{autoACK: true}, &sink{autoACK: true}
	rc.AddPort(NewLink(eng, "p0", 16_000_000_000, 100, 8, s0))
	rc.AddPort(NewLink(eng, "p1", 16_000_000_000, 100, 8, s1))
	if rc.NumPorts() != 2 {
		t.Fatalf("NumPorts = %d", rc.NumPorts())
	}

	rc.Inject(&Packet{Addr: 0, Kind: MemRead}, nil)
	rc.Inject(&Packet{Addr: 1, Kind: MemRead}, nil)
	eng.Run()
	if len(s0.pkts) != 1 || len(s1.pkts) != 1 {
		t.Errorf("port deliveries: %d, %d; want 1,1", len(s0.pkts), len(s1.pkts))
	}
	if rc.Injected() != 2 {
		t.Errorf("Injected = %d, want 2", rc.Injected())
	}

	// Upstream: a completion arriving at the RC reaches the host sink.
	up := NewLink(eng, "up", 16_000_000_000, 100, 8, rc)
	cpl := &Packet{Kind: Completion, Payload: 4096}
	up.Send(cpl, nil)
	eng.Run()
	if len(delivered) != 1 || delivered[0] != cpl {
		t.Fatalf("host sink got %d packets", len(delivered))
	}
	if rc.Delivered() != 1 {
		t.Errorf("Delivered = %d, want 1", rc.Delivered())
	}
	if cpl.RouteTime != 200 {
		t.Errorf("upstream RouteTime = %v, want 200", cpl.RouteTime)
	}
}

func TestRootComplexBadPortPanics(t *testing.T) {
	eng := simx.NewEngine()
	rc := NewRootComplex(eng, 0, func(*Packet) int { return 7 }, func(*Packet) {})
	defer func() {
		if recover() == nil {
			t.Error("bad RC port did not panic")
		}
	}()
	rc.Inject(&Packet{}, nil)
	eng.Run()
}

// Property: over any sequence of sends on a single-credit link with a
// consumer that acks after a fixed service time, every packet is
// delivered exactly once and total WireTime equals the sum of per-packet
// transfer times.
func TestPropertyLinkConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := simx.NewEngine()
		dst := &sink{autoACK: true}
		l := NewLink(eng, "l", 1_000_000_000, 10, 1, dst)
		var wantWire simx.Time
		for i, sz := range sizes {
			p := &Packet{ID: uint64(i), Payload: units.Bytes(sz)}
			wantWire += l.TransferTime(units.Bytes(sz))
			l.Send(p, nil)
		}
		eng.Run()
		if len(dst.pkts) != len(sizes) {
			return false
		}
		var gotWire simx.Time
		seen := map[uint64]bool{}
		for _, p := range dst.pkts {
			if seen[p.ID] {
				return false
			}
			seen[p.ID] = true
			gotWire += p.WireTime
		}
		return gotWire == wantWire && l.BusyNS() == wantWire
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRetrainOverlappingWindows requests two retrains at once: they
// hold the wire back to back, each for its own window, and a packet
// sent meanwhile serialises only after both.
func TestRetrainOverlappingWindows(t *testing.T) {
	eng := simx.NewEngine()
	s := &sink{autoACK: true}
	l := NewLink(eng, "l", 1_000_000_000, 0, 4, s) // 1 GB/s, no propagation
	l.Retrain(10 * simx.Microsecond)
	l.Retrain(3 * simx.Microsecond)
	l.Send(&Packet{Payload: 1000}, nil)
	eng.Run()
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(s.pkts))
	}
	want := 13*simx.Microsecond + l.TransferTime(1000)
	if eng.Now() != want {
		t.Errorf("packet delivered at %v, want %v (both windows, then the transfer)", eng.Now(), want)
	}
	if l.BusyNS() != want {
		t.Errorf("wire busy %v, want %v", l.BusyNS(), want)
	}
}
