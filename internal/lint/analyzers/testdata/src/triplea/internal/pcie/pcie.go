// Package pcie is a miniature stand-in for the repository's real
// internal/pcie, giving poolsafe fixtures the pooled Packet type, the
// Pool acquire/release pair, the Link.Send handoff sink and the
// registered Link.sendQ queue the analyzer's tables key on
// (registration matches by path suffix, so this fake registers
// alongside the real package).
package pcie

import "triplea/internal/simx"

// Packet is the pooled object. Meta is the continuation field the
// poolsafe allowlist sanctions.
type Packet struct {
	next *Packet
	Kind int
	Addr uint64
	Meta any
}

// Pool is an intrusive free-list. Get and Put are registered as the
// pcie.Packet acquire and release; their bodies are pool machinery and
// exempt from the ownership rules.
type Pool struct{ free *Packet }

func (p *Pool) Get() *Packet {
	pkt := p.free
	if pkt == nil {
		return &Packet{}
	}
	p.free = pkt.next
	*pkt = Packet{}
	return pkt
}

func (p *Pool) Put(pkt *Packet) {
	pkt.Meta = nil
	pkt.next = p.free
	p.free = pkt
}

// Receiver and Link.Send mirror the real transport surface; Send and
// Receive are registered handoff sinks.
type Receiver interface {
	Receive(pkt *Packet, from *Link)
}

// Link.sendQ is on the continuation allowlist: pushing a pooled packet
// (bare, or inside a queue entry) onto it is a sanctioned store.
type Link struct {
	dst   Receiver
	sendQ simx.FIFO[stalledSend]
}

type stalledSend struct {
	pkt   *Packet
	since int
}

func (l *Link) Send(pkt *Packet, accepted func(bool)) {
	if l.dst == nil {
		l.sendQ.Push(stalledSend{pkt: pkt})
		return
	}
	l.dst.Receive(pkt, l)
}
