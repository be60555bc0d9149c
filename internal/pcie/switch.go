package pcie

import (
	"fmt"

	"triplea/internal/simx"
)

// RouteFunc decides the egress for a packet: a non-negative downstream
// port index, or Upstream to head toward the root complex.
type RouteFunc func(pkt *Packet) int

// Upstream is the RouteFunc result that sends a packet toward the RC.
const Upstream = -1

// Switch is a PCI-E switch: one upstream virtual bridge and a set of
// downstream bridges, joined by an internal bus. A packet holds its
// ingress VC buffer entry (the arriving link's credit) until the egress
// link accepts it, so a congested egress stalls the ingress link too.
type Switch struct {
	name         string
	routeLatency simx.Time
	route        RouteFunc

	up   *Link
	down []*Link
}

// NewSwitch builds a switch. Links are attached afterwards with
// SetUpstream/AddDownstream (topology wiring happens in the array layer).
func NewSwitch(name string, routeLatency simx.Time, route RouteFunc) *Switch {
	if route == nil {
		panic("pcie: switch needs a route function")
	}
	return &Switch{name: name, routeLatency: routeLatency, route: route}
}

// Name reports the switch's diagnostic name.
func (s *Switch) Name() string { return s.name }

// SetUpstream attaches the egress link toward the root complex.
func (s *Switch) SetUpstream(l *Link) { s.up = l }

// AddDownstream attaches an egress link toward an endpoint, returning
// its port index.
func (s *Switch) AddDownstream(l *Link) int {
	s.down = append(s.down, l)
	return len(s.down) - 1
}

// Receive implements Receiver. The ingress link delivers a packet once
// the switching latency has elapsed, so it is routed at once; the
// ingress credit returns when the egress link accepts it.
func (s *Switch) Receive(pkt *Packet, from *Link) {
	pkt.RouteTime += s.routeLatency
	port := s.route(pkt) //simlint:coldalloc static topology dispatch: route bound once at build time
	var egress *Link
	if port == Upstream {
		egress = s.up
	} else if port >= 0 && port < len(s.down) {
		egress = s.down[port]
	}
	if egress == nil {
		panic(fmt.Sprintf("pcie: %s has no egress for %v (port %d)", s.name, pkt, port))
	}
	egress.Send(pkt, from)
}

var _ Receiver = (*Switch)(nil)
