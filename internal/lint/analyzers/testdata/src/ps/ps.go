// Package ps exercises the poolsafe analyzer: every value from a
// registered pool acquire must be released or handed off on every path
// (rule a), never touched after release (rule b), never released twice
// (rule c), and never parked in state outside the continuation
// allowlist (rule d).
package ps

import (
	"triplea/internal/pcie"
	"triplea/internal/simx"
)

// stash is NOT on the continuation allowlist: parking a pooled pointer
// in it, by assignment or by a push onto one of its queues, is rule
// (d)'s target.
type stash struct {
	pkt     *pcie.Packet
	queue   simx.FIFO[*pcie.Packet]
	entries simx.FIFO[entry]
}

// entry is a queue element holding a pooled pointer.
type entry struct {
	pkt  *pcie.Packet
	seen int
}

// ---- rule (a): leak on path ----

func leakOnPath(p *pcie.Pool, c bool) {
	pkt := p.Get() // want `pooled pcie\.Packet may leak: a path to return reaches neither a release nor a sanctioned handoff`
	if c {
		p.Put(pkt)
	}
}

func leakZeroIterationRange(p *pcie.Pool, xs []int, l *pcie.Link) {
	pkt := p.Get() // want `pooled pcie\.Packet may leak`
	for range xs {
		l.Send(pkt, nil)
	}
}

func reacquireLeaksFirst(p *pcie.Pool) {
	pkt := p.Get()
	pkt = p.Get() // want `pooled pcie\.Packet reacquired before the previous object was released or handed off`
	p.Put(pkt)
}

func overwriteLeaks(p *pcie.Pool) {
	pkt := p.Get()
	pkt = nil // want `pooled pcie\.Packet overwritten before release or handoff`
	_ = pkt
}

func discardedAcquire(p *pcie.Pool) {
	p.Get() // want `result of pcie\.Packet acquire is discarded`
}

// ---- rule (b): use after release ----

func useAfterRelease(p *pcie.Pool) int {
	pkt := p.Get()
	p.Put(pkt)
	return pkt.Kind // want `use of pooled pcie\.Packet after release at line \d+`
}

func handoffAfterRelease(p *pcie.Pool, l *pcie.Link) {
	pkt := p.Get()
	p.Put(pkt)
	l.Send(pkt, nil) // want `use of pooled pcie\.Packet after release at line \d+`
}

func useAfterReleaseOnOnePath(p *pcie.Pool, l *pcie.Link, c bool) {
	pkt := p.Get()
	if c {
		p.Put(pkt)
	} else {
		l.Send(pkt, nil)
	}
	pkt.Kind = 1 // want `use of pooled pcie\.Packet after release at line \d+`
}

// ---- rule (c): double release ----

func doubleRelease(p *pcie.Pool) {
	pkt := p.Get()
	p.Put(pkt)
	p.Put(pkt) // want `double release of pooled pcie\.Packet \(already released at line \d+\)`
}

func doubleReleaseOnOnePath(p *pcie.Pool, c bool) {
	pkt := p.Get()
	if c {
		p.Put(pkt)
	}
	p.Put(pkt) // want `double release of pooled pcie\.Packet \(already released at line \d+\)`
}

// ---- rule (d): illegal stores ----

func illegalFieldStore(p *pcie.Pool, s *stash) {
	pkt := p.Get()
	s.pkt = pkt // want `pooled pcie\.Packet stored into stash\.pkt, outside the continuation allowlist`
}

func illegalMapStore(p *pcie.Pool, m map[int]*pcie.Packet) {
	pkt := p.Get()
	m[0] = pkt // want `pooled pcie\.Packet stored into a map`
}

func illegalQueuePush(p *pcie.Pool, s *stash) {
	pkt := p.Get()
	s.queue.Push(pkt) // want `pooled pcie\.Packet stored into stash\.queue, outside the continuation allowlist`
}

func illegalQueueEntryPush(pkt *pcie.Packet, s *stash) {
	s.entries.Push(entry{pkt: pkt, seen: 1}) // want `pooled pcie\.Packet stored into stash\.entries, outside the continuation allowlist`
}

// ---- sanctioned flows: no diagnostics ----

// releasedEverywhere discharges on every path.
func releasedEverywhere(p *pcie.Pool, c bool) {
	pkt := p.Get()
	if c {
		pkt.Kind = 1
	}
	p.Put(pkt)
}

// sinkHandoff transfers ownership to the transport.
func sinkHandoff(p *pcie.Pool, l *pcie.Link) {
	pkt := p.Get()
	pkt.Addr = 7
	l.Send(pkt, nil)
}

// nestedAcquireIntoSink consumes the acquire result directly.
func nestedAcquireIntoSink(p *pcie.Pool, l *pcie.Link) {
	l.Send(p.Get(), nil)
}

// metaStore parks one pooled object in another's allowlisted
// continuation field, then hands the carrier to the transport.
func metaStore(p *pcie.Pool, l *pcie.Link) {
	pkt := p.Get()
	carrier := p.Get()
	carrier.Meta = pkt
	l.Send(carrier, nil)
}

// localQueue parks a borrowed packet on a queue that dies with the
// frame, like an element store into a local slice.
func localQueue(pkt *pcie.Packet) {
	var q simx.FIFO[entry]
	q.Push(entry{pkt: pkt})
}

// returnTransfers hands ownership to the caller.
func returnTransfers(p *pcie.Pool) *pcie.Packet {
	pkt := p.Get()
	pkt.Kind = 2
	return pkt
}

// closureCapture makes the closure the owner; its body is analyzed as
// its own function and releases there.
func closureCapture(p *pcie.Pool, run func(func())) {
	pkt := p.Get()
	run(func() { p.Put(pkt) })
}

// auditedHandoff: park takes ownership in a way the analyzer cannot
// see; the escape hatch silences the leak report on the acquire line.
func auditedHandoff(p *pcie.Pool, park func(*pcie.Packet)) {
	pkt := p.Get() //simlint:handoff park's registry owns the packet from here
	park(pkt)
}

// loopReuse acquires and releases once per iteration.
func loopReuse(p *pcie.Pool, n int) {
	for i := 0; i < n; i++ {
		pkt := p.Get()
		pkt.Kind = i
		p.Put(pkt)
	}
}

// borrowedParam releases a value owned by the caller: releasing or
// using an unowned value is fine, and the post-release discipline
// still applies (covered above).
func borrowedParam(p *pcie.Pool, pkt *pcie.Packet) {
	pkt.Kind = 3
	p.Put(pkt)
}

// switchPaths discharges in every case, including default.
func switchPaths(p *pcie.Pool, l *pcie.Link, mode int) {
	pkt := p.Get()
	switch mode {
	case 0:
		p.Put(pkt)
	case 1:
		l.Send(pkt, nil)
	default:
		p.Put(pkt)
	}
}
