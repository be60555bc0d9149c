package simx

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.00us"},
		{3300, "3.30us"},
		{Millisecond, "1.000ms"},
		{2 * Second, "2.000s"},
		{-Microsecond, "-1.00us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeMicros(t *testing.T) {
	if got := (3300 * Nanosecond).Micros(); got != 3.3 {
		t.Errorf("Micros() = %v, want 3.3", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	schedule(eng, 30, func() { order = append(order, 3) })
	schedule(eng, 10, func() { order = append(order, 1) })
	schedule(eng, 20, func() { order = append(order, 2) })
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired in order %v, want [1 2 3]", order)
	}
	if eng.Now() != 30 {
		t.Errorf("Now() = %v, want 30", eng.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		schedule(eng, 5, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var hits []Time
	schedule(eng, 10, func() {
		hits = append(hits, eng.Now())
		schedule(eng, 5, func() { hits = append(hits, eng.Now()) })
	})
	eng.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [10 15]", hits)
	}
}

func TestRunUntil(t *testing.T) {
	eng := NewEngine()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		schedule(eng, d, func() { fired = append(fired, d) })
	}
	eng.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v, want two events", fired)
	}
	if eng.Now() != 25 {
		t.Errorf("Now() = %v after RunUntil(25)", eng.Now())
	}
	eng.Run()
	if len(fired) != 4 {
		t.Fatalf("Run() after RunUntil left events: fired %v", fired)
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	eng := NewEngine()
	eng.RunFor(100)
	if eng.Now() != 100 {
		t.Errorf("Now() = %v after empty RunFor(100)", eng.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ScheduleEvent(-1) did not panic")
		}
	}()
	schedule(NewEngine(), -1, func() {})
}

func TestAtBeforeNowPanics(t *testing.T) {
	eng := NewEngine()
	schedule(eng, 10, func() {})
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Error("AtEvent(past) did not panic")
		}
	}()
	eng.AtEvent(5, funcHandler(func() {}), 0)
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	eng := NewEngine()
	if eng.Step() {
		t.Error("Step() on empty engine returned true")
	}
}

// Property: for any batch of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the max delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		eng := NewEngine()
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			schedule(eng, d, func() { fired = append(fired, eng.Now()) })
		}
		eng.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || eng.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEngineIntrospection(t *testing.T) {
	eng := NewEngine()
	schedule(eng, 25, func() {})
	schedule(eng, 30, func() {})
	if eng.Fired() != 0 || eng.EventPoolFree() != 0 {
		t.Errorf("before run: Fired = %d, EventPoolFree = %d", eng.Fired(), eng.EventPoolFree())
	}
	eng.Run()
	if eng.Fired() != 2 {
		t.Errorf("Fired after run = %d, want 2", eng.Fired())
	}
	if eng.EventPoolFree() != 2 {
		t.Errorf("EventPoolFree after run = %d, want 2", eng.EventPoolFree())
	}
}

// funcHandler adapts a closure to Handler so tests can schedule inline
// bodies; the simulator itself pre-binds pooled handlers.
type funcHandler func()

func (f funcHandler) OnEvent(uint64) { f() }

// schedule runs fn delay nanoseconds from now through the event path.
func schedule(eng *Engine, delay Time, fn func()) {
	eng.ScheduleEvent(delay, funcHandler(fn), 0)
}
