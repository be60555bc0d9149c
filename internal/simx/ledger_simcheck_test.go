//go:build simcheck

package simx

import (
	"strings"
	"testing"
)

// TestLedgerCountsLifecycle drives a synthetic pool through the three
// ledger hooks and checks the outstanding count at each step.
func TestLedgerCountsLifecycle(t *testing.T) {
	const pool = "test.widget"
	base := PoolOutstanding(pool)
	var ck PoolCheck
	ck.Fresh(pool)
	if got := PoolOutstanding(pool); got != base+1 {
		t.Fatalf("after Fresh: %d outstanding, want %d", got, base+1)
	}
	ck.Release(pool)
	if got := PoolOutstanding(pool); got != base {
		t.Fatalf("after Release: %d outstanding, want %d", got, base)
	}
	ck.Checkout(pool)
	if got := PoolOutstanding(pool); got != base+1 {
		t.Fatalf("after Checkout: %d outstanding, want %d", got, base+1)
	}
	ck.Release(pool)
}

// TestAssertDrainedNamesLeakedPool deliberately leaks one object and
// checks the failure is attributable: the error must carry the pool's
// name and the outstanding count.
func TestAssertDrainedNamesLeakedPool(t *testing.T) {
	const pool = "test.leaky"
	snap := SnapshotLedger()
	if err := AssertDrained(snap); err != nil {
		t.Fatalf("clean ledger reported a leak: %v", err)
	}
	var ck PoolCheck
	ck.Fresh(pool) // never released
	err := AssertDrained(snap)
	if err == nil {
		t.Fatal("leaked object not reported")
	}
	if !strings.Contains(err.Error(), pool) {
		t.Fatalf("leak report %q does not name the pool %q", err, pool)
	}
	ck.Release(pool) // repair the ledger for later tests in this process
}
