package pcie

import (
	"fmt"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// TLPOverheadBytes is the per-packet framing cost: transaction-layer
// header (16), sequence number + LCRC (8) — the fields the endpoint's
// device layers strip and rebuild.
const TLPOverheadBytes = 24 * units.Byte

// Gen3LaneBandwidth is the effective data rate of one PCI Express 3.0
// lane: 8 GT/s with 128b/130b encoding, ~1 GB/s of TLP bytes.
const Gen3LaneBandwidth = 1 * units.GBps

// Gen3Bandwidth reports the raw bandwidth of a PCI-E 3.0 link n lanes
// wide (x4, x16, ...).
func Gen3Bandwidth(n units.Lanes) units.BytesPerSec {
	return units.LaneBandwidth(Gen3LaneBandwidth, n)
}

// Receiver consumes packets delivered by a Link. Implementations must
// eventually call from.ReturnCredit() once the packet's buffer entry is
// freed, or the link stalls — exactly like real VC flow control.
type Receiver interface {
	Receive(pkt *Packet, from *Link)
}

// Accepted is notified when a packet wins a credit and leaves the
// sender's buffer — the moment an upstream device can free its own
// ingress entry. It is an interface rather than a func so hot callers
// (switches, the endpoints) can hand in existing state without
// allocating a closure per hop.
type Accepted interface {
	OnLinkAccepted(pkt *Packet)
}

// Link is one direction of a dual-simplex PCI-E connection. The sender
// serialises packets onto the wire; the receiver advertises a fixed
// number of virtual-channel buffer credits. With no credit available,
// packets wait at the sender — that waiting is the link-level stall the
// paper's flow-control discussion describes.
//
// The wire is an analytic capacity-1 FIFO server: a packet that wins
// its credit at now serialises over [max(now, freeAt), +xfer), and one
// event delivers it after propagation and the receiver's routing
// latency. Delivery instants never decrease in send order, so the link
// itself handles every delivery event, popping its in-flight queue.
type Link struct {
	eng  *simx.Engine
	name string

	bytesPerSec units.BytesPerSec
	// arrive is the delay from the end of serialisation to the packet
	// being routed at the receiver: propagation plus the switch's or
	// RC's routing latency (an endpoint routes nothing).
	arrive simx.Time
	freeAt simx.Time // when the wire finishes its last claim

	credits int
	maxCred int
	dst     Receiver

	// inflight holds the packets holding a credit that have not been
	// delivered yet, in send order. A credit returns only after its
	// packet is delivered, so at most maxCred are ever in flight.
	inflight simx.FIFO[*Packet]

	sendQ simx.FIFO[stalledSend] // credit-stalled sends, oldest first

	// rateScale > 0 stretches serialisation time — an injected link
	// degradation, e.g. lanes trained down after an error (fault.go).
	rateScale float64

	// Statistics.
	packets     uint64
	bytes       units.Bytes
	creditStall simx.Time
}

// stalledSend is a send waiting at the sender for a receiver credit.
type stalledSend struct {
	pkt      *Packet
	queued   simx.Time
	accepted Accepted
}

// NewLink builds a link delivering to dst with the given raw bandwidth,
// propagation delay and receiver credit count.
func NewLink(eng *simx.Engine, name string, bytesPerSec units.BytesPerSec, propagation simx.Time, credits int, dst Receiver) *Link {
	if bytesPerSec <= 0 {
		panic(fmt.Sprintf("pcie: link %s bandwidth must be positive", name))
	}
	if credits < 1 {
		panic(fmt.Sprintf("pcie: link %s needs at least one credit", name))
	}
	arrive := propagation
	switch d := dst.(type) {
	case nil:
		panic(fmt.Sprintf("pcie: link %s has no receiver", name))
	case *Switch:
		arrive += d.routeLatency
	case *RootComplex:
		arrive += d.routeLatency
	}
	return &Link{
		eng:         eng,
		name:        name,
		bytesPerSec: bytesPerSec,
		arrive:      arrive,
		credits:     credits,
		maxCred:     credits,
		dst:         dst,
	}
}

// Name reports the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// TransferTime reports serialisation time for a packet with n payload
// bytes (TLP overhead included), rounded up to whole nanoseconds.
func (l *Link) TransferTime(n units.Bytes) simx.Time {
	t := units.TransferTime(n+TLPOverheadBytes, l.bytesPerSec)
	if l.rateScale > 0 {
		t = simx.Time(float64(t) * l.rateScale)
	}
	return t
}

// Send transmits pkt toward the receiver. accepted (optional) fires when
// the packet wins a credit and leaves the sender's buffer — the moment a
// switch can free its own ingress entry. Delivery to the receiver
// happens after wire serialisation plus propagation.
func (l *Link) Send(pkt *Packet, accepted Accepted) {
	if pkt == nil {
		panic("pcie: Send of nil packet")
	}
	pkt.ck.InUse("pcie.Packet")
	if l.credits > 0 {
		l.credits--
		l.transmit(pkt, accepted)
		return
	}
	l.sendQ.Push(stalledSend{pkt, l.eng.Now(), accepted})
}

// ReturnCredit hands one VC buffer entry back to the sender, releasing
// the oldest stalled packet if any.
func (l *Link) ReturnCredit() {
	if l.sendQ.Len() == 0 {
		l.credits++
		if l.credits > l.maxCred {
			panic("pcie: credit overflow on " + l.name)
		}
		return
	}
	s := l.sendQ.Pop()
	stalled := l.eng.Now() - s.queued
	s.pkt.CreditWait += stalled
	l.creditStall += stalled
	l.transmit(s.pkt, s.accepted)
}

// OnLinkAccepted implements Accepted for a switch forwarding a packet
// that arrived on this link: the packet left the switch's ingress
// buffer, so its credit returns.
func (l *Link) OnLinkAccepted(*Packet) { l.ReturnCredit() }

// transmit puts a packet that holds a credit on the wire and schedules
// its delivery.
func (l *Link) transmit(pkt *Packet, accepted Accepted) {
	if accepted != nil {
		accepted.OnLinkAccepted(pkt)
	}
	if l.inflight.Len() == l.maxCred {
		panic("pcie: more packets in flight than credits on " + l.name)
	}
	now := l.eng.Now()
	start := max(now, l.freeAt)
	xfer := l.TransferTime(pkt.Payload)
	l.freeAt = start + xfer
	pkt.WireWait += start - now
	pkt.WireTime += xfer
	l.packets++
	l.bytes += pkt.Payload + TLPOverheadBytes
	l.inflight.Push(pkt)
	l.eng.AtEvent(l.freeAt+l.arrive, l, 0)
}

// OnEvent implements simx.Handler: the oldest in-flight packet arrives
// at the receiver.
func (l *Link) OnEvent(uint64) {
	l.dst.Receive(l.inflight.Pop(), l)
}

// CreditsAvailable reports the sender-visible free credit count.
func (l *Link) CreditsAvailable() int { return l.credits }

// PendingSends reports packets stalled for credits.
func (l *Link) PendingSends() int { return l.sendQ.Len() }

// Packets reports how many packets have been put on the wire.
func (l *Link) Packets() uint64 { return l.packets }

// Bytes reports total bytes put on the wire (overhead included).
func (l *Link) Bytes() units.Bytes { return l.bytes }

// CreditStallNS reports accumulated credit-stall time.
func (l *Link) CreditStallNS() simx.Time { return l.creditStall }
