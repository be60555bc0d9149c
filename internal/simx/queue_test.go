package simx

import (
	"sort"
	"testing"
)

// orderProbe schedules a random cascade and records what fires. Each
// event's arg is its schedule-order id; firing may schedule children,
// zero delays included.
type orderProbe struct {
	eng   *Engine
	rng   *RNG
	limit int
	when  []Time // scheduled time by id
	fired []uint64
}

func (p *orderProbe) add(delay Time) {
	id := uint64(len(p.when))
	p.when = append(p.when, p.eng.Now()+delay)
	p.eng.ScheduleEvent(delay, p, id)
}

func (p *orderProbe) OnEvent(id uint64) {
	if p.eng.Now() != p.when[id] {
		panic("event fired at the wrong time")
	}
	p.fired = append(p.fired, id)
	for k := p.rng.Intn(3); k > 0 && len(p.when) < p.limit; k-- {
		p.add(Time(p.rng.Intn(4))) // 0–3 ns: ties with pending events
	}
}

// TestEventOrderMatchesStableSort checks the fired sequence against a
// reference: every event ever scheduled, stably sorted by time, so that
// equal times keep schedule order.
func TestEventOrderMatchesStableSort(t *testing.T) {
	p := &orderProbe{eng: NewEngine(), rng: NewRNG(11), limit: 20000}
	for i := 0; i < 2000; i++ {
		p.add(Time(p.rng.Intn(50)))
	}
	p.eng.Run()
	want := make([]uint64, len(p.when))
	for i := range want {
		want[i] = uint64(i)
	}
	sort.SliceStable(want, func(i, j int) bool { return p.when[want[i]] < p.when[want[j]] })
	if len(p.fired) != len(want) {
		t.Fatalf("fired %d of %d scheduled events", len(p.fired), len(want))
	}
	for i := range want {
		if p.fired[i] != want[i] {
			t.Fatalf("fire #%d: event %d (t=%v), reference has event %d (t=%v)",
				i, p.fired[i], p.when[p.fired[i]], want[i], p.when[want[i]])
		}
	}
}

// backlogProbe keeps a capacity-1 resource's wait queue at a fixed
// depth: each grantee re-queues a successor and releases after hold.
type backlogProbe struct {
	t       *testing.T
	r       *Resource
	hold    Time
	backlog int
	cycles  int
	next    uint64 // next id to queue
	granted uint64 // next id expected to be granted
}

func (p *backlogProbe) queue() {
	p.r.AcquireG(p, p.next)
	p.next++
}

func (p *backlogProbe) OnGrant(id uint64, waited Time) {
	if id != p.granted {
		p.t.Fatalf("granted waiter %d, FIFO order wants %d", id, p.granted)
	}
	// Waiter k is granted at (k+1)*hold; the first backlog waiters
	// arrived at 0, every later one when the waiter backlog ahead of
	// it was granted.
	want := Time(id+1) * p.hold
	if int(id) >= p.backlog {
		want = Time(p.backlog) * p.hold
	}
	if waited != want {
		p.t.Fatalf("waiter %d waited %v, want %v", id, waited, want)
	}
	p.granted++
	if int(p.next) < p.cycles {
		p.queue()
		if q := p.r.QueueLen(); q != p.backlog {
			p.t.Fatalf("backlog %d after grant %d, want %d", q, id, p.backlog)
		}
	}
	p.r.eng.ScheduleEvent(p.hold, p, 0)
}

func (p *backlogProbe) OnEvent(uint64) { p.r.Release() }

func TestResourceStandingBacklog(t *testing.T) {
	eng := NewEngine()
	p := &backlogProbe{t: t, r: NewResource(eng, "bus", 1), hold: 10, backlog: 16, cycles: 20000}
	p.r.TryAcquire()
	for i := 0; i < p.backlog; i++ {
		p.queue()
	}
	eng.ScheduleEvent(p.hold, p, 0)
	eng.Run()
	if int(p.granted) != p.cycles {
		t.Fatalf("granted %d of %d waiters", p.granted, p.cycles)
	}
}

type nopReceiver struct{}

func (*nopReceiver) OnEvent(uint64)       {}
func (*nopReceiver) OnGrant(uint64, Time) {}

func TestQueuesSteadyStateAllocFree(t *testing.T) {
	eng := NewEngine()
	h := &nopReceiver{}
	var i int
	scheduleStep := func() {
		i++
		eng.ScheduleEvent(Time(i*7919%1024), h, 0)
		eng.Step()
	}
	for k := 0; k < 1024; k++ {
		eng.ScheduleEvent(Time(k), h, 0)
	}
	for k := 0; k < 4096; k++ { // warm-up
		scheduleStep()
	}
	if n := testing.AllocsPerRun(10000, scheduleStep); n != 0 {
		t.Errorf("schedule/step with 1024 pending: %v allocs per op, want 0", n)
	}

	r := NewResource(eng, "bus", 1)
	r.TryAcquire()
	for k := 0; k < 16; k++ {
		r.AcquireG(h, 0)
	}
	acquireRelease := func() {
		r.AcquireG(h, 0)
		r.Release()
	}
	for k := 0; k < 4096; k++ { // warm-up
		acquireRelease()
	}
	if n := testing.AllocsPerRun(10000, acquireRelease); n != 0 {
		t.Errorf("acquire/release against a backlog of 16: %v allocs per op, want 0", n)
	}
	if r.QueueLen() != 16 {
		t.Errorf("backlog %d, want 16", r.QueueLen())
	}

	var q FIFO[waiter]
	for k := 0; k < 16; k++ {
		q.Push(waiter{g: h})
	}
	pushPop := func() {
		q.Push(waiter{g: h, arg: uint64(i)})
		i++
		q.Pop()
	}
	for k := 0; k < 4096; k++ { // warm-up
		pushPop()
	}
	if n := testing.AllocsPerRun(10000, pushPop); n != 0 {
		t.Errorf("FIFO push/pop against a backlog of 16: %v allocs per op, want 0", n)
	}
}
