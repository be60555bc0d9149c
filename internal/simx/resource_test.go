package simx

import (
	"testing"
	"testing/quick"
)

func TestResourceImmediateGrant(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "bus", 1)
	granted := false
	acquire(r, func(w Time) {
		granted = true
		if w != 0 {
			t.Errorf("waited %v on an idle resource", w)
		}
	})
	if !granted {
		t.Fatal("idle resource did not grant synchronously")
	}
	if r.InUse() != 1 {
		t.Errorf("InUse() = %d, want 1", r.InUse())
	}
}

func TestResourceFIFOWait(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "bus", 1)
	var order []int

	acquire(r, func(Time) {}) // hold the slot
	for i := 0; i < 3; i++ {
		i := i
		acquire(r, func(w Time) { order = append(order, i) })
	}
	if r.QueueLen() != 3 {
		t.Fatalf("QueueLen() = %d, want 3", r.QueueLen())
	}

	// Release at t=10, 20, 30; each release admits the next waiter.
	for k := 0; k < 3; k++ {
		schedule(eng, Time(10*(k+1)), func() { r.Release() })
	}
	eng.Run()

	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("waiters granted in order %v, want [0 1 2]", order)
	}
	if r.InUse() != 1 { // last waiter still holds it
		t.Errorf("InUse() = %d, want 1", r.InUse())
	}
	if r.MaxQueue() != 3 {
		t.Errorf("MaxQueue() = %d, want 3", r.MaxQueue())
	}
}

func TestResourceWaitTimes(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "bus", 1)
	acquire(r, func(Time) {})
	var waited Time = -1
	acquire(r, func(w Time) { waited = w })
	schedule(eng, 42, func() { r.Release() })
	eng.Run()
	if waited != 42 {
		t.Errorf("waiter saw wait %v, want 42", waited)
	}
	if r.TotalWait() != 42 {
		t.Errorf("TotalWait() = %v, want 42", r.TotalWait())
	}
}

func TestResourceCapacityN(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "dies", 3)
	grants := 0
	for i := 0; i < 5; i++ {
		acquire(r, func(w Time) {
			if w == 0 {
				grants++
			}
		})
	}
	if grants != 3 {
		t.Errorf("%d immediate grants, want 3", grants)
	}
	if r.QueueLen() != 2 {
		t.Errorf("QueueLen() = %d, want 2", r.QueueLen())
	}
}

func TestTryAcquire(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "slot", 1)
	if !r.TryAcquire() {
		t.Fatal("TryAcquire on idle resource failed")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire on full resource succeeded")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release of idle resource did not panic")
		}
	}()
	eng := NewEngine()
	NewResource(eng, "x", 1).Release()
}

func TestBusyIntegral(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "bus", 1)
	// busy [10, 30), idle [30, 50), busy [50, 60)
	schedule(eng, 10, func() { acquire(r, func(Time) {}) })
	schedule(eng, 30, func() { r.Release() })
	schedule(eng, 50, func() { acquire(r, func(Time) {}) })
	schedule(eng, 60, func() { r.Release() })
	eng.Run()
	if got := r.BusyNS(); got != 30 {
		t.Errorf("BusyNS() = %v, want 30", got)
	}
}

func TestUtilizationSince(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "bus", 1)
	schedule(eng, 0, func() { acquire(r, func(Time) {}) })
	schedule(eng, 50, func() { r.Release() })
	eng.RunUntil(100)
	// busy 50 of 100 ns
	if u := r.UtilizationSince(0, 0); u != 0.5 {
		t.Errorf("UtilizationSince = %v, want 0.5", u)
	}
	// window [50,100) entirely idle
	snap := r.BusyNS()
	eng.RunUntil(200)
	if u := r.UtilizationSince(100, snap); u != 0 {
		t.Errorf("idle-window utilization = %v, want 0", u)
	}
}

func TestWeightedBusy(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "dies", 2)
	schedule(eng, 0, func() { acquire(r, func(Time) {}); acquire(r, func(Time) {}) })
	schedule(eng, 10, func() { r.Release() })
	schedule(eng, 20, func() { r.Release() })
	eng.Run()
	// 2 slots for 10ns + 1 slot for 10ns = 30 slot-ns
	if got := r.WeightedBusyNS(); got != 30 {
		t.Errorf("WeightedBusyNS() = %v, want 30", got)
	}
}

// Property: with capacity 1 and k sequential hold/release cycles of
// duration d each, busy time is k*d and every waiter is granted.
func TestPropertyResourceConservation(t *testing.T) {
	f := func(durations []uint8) bool {
		eng := NewEngine()
		r := NewResource(eng, "bus", 1)
		var total Time
		granted := 0
		for _, d8 := range durations {
			d := Time(d8) + 1 // at least 1ns
			total += d
			acquire(r, func(w Time) {
				granted++
				schedule(eng, d, func() { r.Release() })
			})
		}
		eng.Run()
		return granted == len(durations) && r.BusyNS() == total && r.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of range", f)
		}
		if v := r.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n(1000) = %d out of range", v)
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(99)
	n := 20000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("Bool(0.25) hit rate %v, want ~0.25", frac)
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(1)
	for _, fn := range []func(){
		func() { r.Intn(0) },
		func() { r.Int63n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for n<=0")
				}
			}()
			fn()
		}()
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(5)
	child := r.Fork()
	if child.Uint64() == r.Uint64() {
		t.Error("forked stream mirrors parent")
	}
}

func TestResourceIntrospection(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, "intro", 2)
	if r.Name() != "intro" || r.Capacity() != 2 {
		t.Errorf("accessors: %q/%d", r.Name(), r.Capacity())
	}
	acquire(r, func(Time) {})
	if r.Grants() != 1 {
		t.Errorf("Grants = %d", r.Grants())
	}
}

// funcGrantee adapts a closure to Grantee for tests.
type funcGrantee func(waited Time)

func (f funcGrantee) OnGrant(_ uint64, waited Time) { f(waited) }

// acquire queues fn for a slot of r through the grantee path.
func acquire(r *Resource, fn func(waited Time)) {
	r.AcquireG(funcGrantee(fn), 0)
}
