package simx

import "testing"

// TestFIFOOrderAcrossCompactions drives a FIFO through a seeded mix of
// pushes and pops whose backlog swings between empty and deep, so the
// copy-down runs at many offsets, and checks every pop against the
// push order.
func TestFIFOOrderAcrossCompactions(t *testing.T) {
	var q FIFO[int]
	rng := NewRNG(3)
	pushed, popped := 0, 0
	for step := 0; step < 200000; step++ {
		// Alternate phases that grow and drain the backlog.
		growing := step/5000%2 == 0
		if q.Len() > 0 && (rng.Intn(4) == 0) == growing {
			if got := q.Pop(); got != popped {
				t.Fatalf("pop #%d returned %d", popped, got)
			}
			popped++
		} else {
			q.Push(pushed)
			pushed++
		}
		if q.Len() != pushed-popped {
			t.Fatalf("Len %d, want %d", q.Len(), pushed-popped)
		}
		if q.Len() > 0 && *q.Front() != popped {
			t.Fatalf("Front %d, want %d", *q.Front(), popped)
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != popped {
			t.Fatalf("drain pop #%d returned %d", popped, got)
		}
		popped++
	}
	if popped != pushed || len(q.items) != 0 {
		t.Fatalf("popped %d of %d; %d slots left after draining", popped, pushed, len(q.items))
	}
}

// TestFIFOStandingBacklogStorage holds a FIFO at a fixed backlog for
// many push/pop cycles: the copy-down keeps the slice within about
// twice the backlog instead of growing with the total pushed.
func TestFIFOStandingBacklogStorage(t *testing.T) {
	const backlog = 16
	var q FIFO[int]
	for i := 0; i < backlog; i++ {
		q.Push(i)
	}
	maxLen, maxCap := 0, 0
	for i := backlog; i < 20000; i++ {
		q.Push(i)
		if got := q.Pop(); got != i-backlog {
			t.Fatalf("pop returned %d, want %d", got, i-backlog)
		}
		maxLen, maxCap = max(maxLen, len(q.items)), max(maxCap, cap(q.items))
	}
	if maxLen > 2*backlog+1 || maxCap > 4*backlog {
		t.Errorf("storage reached len %d / cap %d for a backlog of %d", maxLen, maxCap, backlog)
	}
}
