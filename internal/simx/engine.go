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

import "fmt"

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

// Handler is a typed event receiver. The engine stores a Handler plus
// one integer argument in its queue entry; when the event fires,
// OnEvent runs with that argument. Models store their per-operation
// state in pooled structs that implement Handler (the interface holds
// only a pointer, so the conversion never allocates) and use arg as a
// phase discriminator.
type Handler interface {
	OnEvent(arg uint64)
}

// event is a scheduled handler invocation, held by value in the
// engine's heap.
type event struct {
	when Time
	seq  uint64
	h    Handler
	arg  uint64
}

// before is the queue order: earlier time first, then scheduling order.
func (ev *event) before(o *event) bool {
	return ev.when < o.when || ev.when == o.when && ev.seq < o.seq
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now    Time
	events []event // binary min-heap ordered by event.before
	seq    uint64
	fired  uint64
	peak   int     // most events ever pending at once
	ck     ckState // empty unless built with -tags simcheck
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
	e.seq++
	ev := event{when: t, seq: e.seq, h: h, arg: arg}
	e.events = append(e.events, ev) //simlint:coldalloc amortized: event-heap growth
	q := e.events
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	e.peak = max(e.peak, len(q))
	if simcheckEnabled {
		e.ckSchedule(t)
	}
}

// EventPoolFree reports the most events that were ever pending at
// once: the length the event heap has grown to (tests and diagnostics).
func (e *Engine) EventPoolFree() int { return e.peak }

// Step fires the next event, if any, advancing the clock to its time.
// It reports whether an event fired.
func (e *Engine) Step() bool {
	q := e.events
	n := len(q) - 1
	if n < 0 {
		return false
	}
	ev := q[0]
	if simcheckEnabled {
		e.ckStep(ev.when)
	}
	// Sift the last entry down from the root, then drop the vacated
	// slot's handler reference.
	last := q[n]
	q[n] = event{}
	q = q[:n]
	e.events = q
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(&q[c]) {
				c++
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	e.now = ev.when
	e.fired++
	ev.h.OnEvent(ev.arg)
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
