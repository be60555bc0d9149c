//go:build simcheck

package simx

import (
	"strings"
	"testing"
)

// TestSimcheckSweepsCleanRun schedules enough events to force several
// full-heap verifications; a correct engine must survive them.
func TestSimcheckSweepsCleanRun(t *testing.T) {
	eng := NewEngine()
	rng := NewRNG(7)
	var fired int
	for i := 0; i < 4*ckVerifyEvery; i++ {
		schedule(eng, Time(rng.Intn(1000))*Microsecond, func() { fired++ })
	}
	eng.Run()
	if fired != 4*ckVerifyEvery {
		t.Fatalf("fired %d of %d events", fired, 4*ckVerifyEvery)
	}
}

// TestSimcheckDetectsCorruptHeap breaks heap order — a parent now
// fires after its child — and expects the sweep to panic on exactly
// that property: this proves the checker actually checks.
func TestSimcheckDetectsCorruptHeap(t *testing.T) {
	eng := NewEngine()
	schedule(eng, Microsecond, func() {})
	schedule(eng, 2*Microsecond, func() {})
	eng.events[0].when = 3 * Microsecond // parent now later than its child
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "heap property violated") {
			t.Fatalf("ckVerifyHeap accepted a heap-order violation (recovered %q)", msg)
		}
	}()
	eng.ckVerifyHeap()
}

// TestSimcheckDetectsPastEvent plants an event behind the clock and
// expects the monotonicity check to panic.
func TestSimcheckDetectsPastEvent(t *testing.T) {
	eng := NewEngine()
	schedule(eng, Millisecond, func() {})
	ev := eng.events[0]
	eng.now = 2 * Millisecond // move the clock past the pending event
	defer func() {
		if recover() == nil {
			t.Fatal("ckStep accepted an event before the clock")
		}
	}()
	eng.ckStep(ev)
}
