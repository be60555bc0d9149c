// Package simx provides a deterministic discrete-event simulation engine
// used by every timing model in the repository: the NAND packages, the
// FIMM channels, the PCI Express fabric, and the autonomic management
// module all schedule work on a single shared Engine.
//
// Time is an integer number of simulated nanoseconds. Events scheduled
// for the same instant fire in scheduling order (a monotonically
// increasing sequence number breaks ties), so a simulation run is fully
// reproducible for a given input.
package simx

import (
	"container/heap"
	"fmt"
)

// Time is a simulated instant or duration in nanoseconds.
type Time int64

// Common durations, mirroring time.Duration conventions.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time using the most natural unit, e.g. "3.30us".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Handler is a typed event receiver. The engine pre-binds a Handler
// plus one integer argument into a pooled event node; when the event
// fires, OnEvent runs with that argument. Models store their
// per-operation state in pooled structs that implement Handler (the
// interface holds only a pointer, so the conversion never allocates)
// and use arg as a phase discriminator.
type Handler interface {
	OnEvent(arg uint64)
}

// event is a scheduled handler invocation. Nodes are engine-owned and
// recycled onto an intrusive free-list the moment they fire, so the
// steady-state hot path schedules without allocating.
type event struct {
	when Time
	seq  uint64
	h    Handler
	arg  uint64
	next *event // free-list link while recycled
	ck   ckLife // pooled-lifecycle guard; empty unless -tags simcheck
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any) {
	*h = append(*h, x.(*event)) //simlint:coldalloc amortized: event-heap growth
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	fired   uint64
	free    *event // recycled event nodes (intrusive free-list)
	freeLen int
	ck      ckState // empty unless built with -tags simcheck
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// ScheduleEvent arranges for h.OnEvent(arg) to run delay nanoseconds
// from now. A negative delay panics: the simulation cannot travel
// backwards.
func (e *Engine) ScheduleEvent(delay Time, h Handler, arg uint64) {
	if delay < 0 {
		panic(fmt.Sprintf("simx: negative delay %v", delay))
	}
	e.AtEvent(e.now+delay, h, arg)
}

// AtEvent is ScheduleEvent at an absolute time t (>= Now).
func (e *Engine) AtEvent(t Time, h Handler, arg uint64) {
	if t < e.now {
		panic(fmt.Sprintf("simx: scheduling at %v before now %v", t, e.now))
	}
	if h == nil {
		panic("simx: nil event handler")
	}
	ev := e.newEvent()
	e.seq++
	ev.when, ev.seq, ev.h, ev.arg = t, e.seq, h, arg
	heap.Push(&e.events, ev)
	if simcheckEnabled {
		e.ckSchedule(ev)
	}
}

// newEvent pops a recycled event node or allocates a fresh one — the
// registered acquire point of the simx.event pool (its release is
// recycle).
func (e *Engine) newEvent() *event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		e.freeLen--
		if simcheckEnabled {
			ev.ck.Checkout("simx.event")
		}
		ev.next = nil
	} else {
		ev = &event{} //simlint:coldalloc pool miss: event free-list refill
		if simcheckEnabled {
			ev.ck.Fresh("simx.event")
		}
	}
	return ev
}

// recycle pushes a fired event node back onto the free-list.
func (e *Engine) recycle(ev *event) {
	if simcheckEnabled {
		ev.ck.Release("simx.event")
	}
	ev.h = nil
	ev.next = e.free
	e.free = ev
	e.freeLen++
}

// EventPoolFree reports how many recycled event nodes are idle — the
// steady-state footprint of the event pool (tests and diagnostics).
func (e *Engine) EventPoolFree() int { return e.freeLen }

// Step fires the next event, if any, advancing the clock to its time.
// It reports whether an event fired.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	if simcheckEnabled {
		e.ckStep(ev)
	}
	e.now = ev.when
	e.fired++
	// Recycle before invoking: the handler usually schedules its next
	// hop immediately, reusing this hot node.
	h, arg := ev.h, ev.arg
	e.recycle(ev)
	h.OnEvent(arg)
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time <= t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].when <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor fires events within the next d nanoseconds.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
