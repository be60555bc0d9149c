package pcie

import (
	"fmt"

	"triplea/internal/simx"
)

// RootComplex generates transactions on behalf of the host and routes
// packets between its ports. Downstream it forwards host requests to
// the switch selected by a route function after its internal routing
// latency; upstream it hands arriving completions to the host sink.
type RootComplex struct {
	eng          *simx.Engine
	routeLatency simx.Time
	route        RouteFunc // selects the switch port for a downstream packet
	ports        []*Link   // downstream links to switches
	deliver      func(pkt *Packet)

	// injected holds the host packets waiting out the routing latency.
	// The latency is constant, so their events fire in push order and
	// the RC itself handles each one by popping the oldest.
	injected simx.FIFO[*Packet]
}

// OnEvent implements simx.Handler: the oldest injected packet's routing
// latency elapsed; send it on its port.
func (rc *RootComplex) OnEvent(uint64) {
	pkt := rc.injected.Pop()
	pkt.RouteTime += rc.routeLatency
	port := rc.route(pkt) //simlint:coldalloc static topology dispatch: route bound once at build time
	if port < 0 || port >= len(rc.ports) {
		panic(fmt.Sprintf("pcie: RC route for %v returned bad port %d", pkt, port))
	}
	rc.ports[port].Send(pkt, nil)
}

// NewRootComplex builds a root complex. route selects the downstream
// port for injected packets; deliver receives upstream packets (host
// side) once they are routed.
func NewRootComplex(eng *simx.Engine, routeLatency simx.Time, route RouteFunc, deliver func(pkt *Packet)) *RootComplex {
	if route == nil || deliver == nil {
		panic("pcie: root complex needs route and deliver functions")
	}
	return &RootComplex{eng: eng, routeLatency: routeLatency, route: route, deliver: deliver}
}

// AddPort attaches a downstream link to a switch, returning its index.
func (rc *RootComplex) AddPort(l *Link) int {
	rc.ports = append(rc.ports, l)
	return len(rc.ports) - 1
}

// NumPorts reports the downstream port count.
func (rc *RootComplex) NumPorts() int { return len(rc.ports) }

// Inject sends a host-originated packet downstream on the port its
// route selects, after the routing latency.
func (rc *RootComplex) Inject(pkt *Packet) {
	pkt.ck.InUse("pcie.Packet")
	rc.injected.Push(pkt)
	rc.eng.ScheduleEvent(rc.routeLatency, rc, 0)
}

// Receive implements Receiver for upstream packets arriving from
// switches. The link delivers a packet once the routing latency has
// elapsed, so it is consumed into host memory at once and its VC
// credit returns.
func (rc *RootComplex) Receive(pkt *Packet, from *Link) {
	pkt.RouteTime += rc.routeLatency
	from.ReturnCredit()
	rc.deliver(pkt) //simlint:coldalloc static topology dispatch: deliver bound once at build time
}

var _ Receiver = (*RootComplex)(nil)
