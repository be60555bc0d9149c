//go:build !simcheck

package simx

// simcheckEnabled is false in the default build; every
// `if simcheckEnabled { ... }` call site below compiles away.
const simcheckEnabled = false

// ckState is empty without the tag, so the Engine pays no space.
type ckState struct{}

func (e *Engine) ckSchedule(ev *event) {}
func (e *Engine) ckStep(ev *event)     {}

// PoolCheck is the pooled-object lifecycle guard. Pooled types (event
// nodes here, pcie.Packet, cluster.Command, ...) embed one and their
// pools call Checkout/Release around free-list traffic; hot entry
// points call InUse. Without the simcheck tag it is an empty struct
// with no-op methods, so the guard compiles away entirely.
type PoolCheck struct{}

// Fresh records a newly allocated pooled object in the leak ledger
// (no-op without the tag).
func (*PoolCheck) Fresh(what string) {}

// Checkout marks the object as taken from its pool's free-list.
func (*PoolCheck) Checkout(what string) {}

// Release marks the object as returned to its pool; a second Release
// without an intervening Checkout is a double-free (panics under
// -tags simcheck).
func (*PoolCheck) Release(what string) {}

// InUse asserts the object has not been released (panics on
// use-after-release under -tags simcheck).
func (*PoolCheck) InUse(what string) {}

// ckLife is the engine-internal alias for the guard.
type ckLife = PoolCheck

// CheckActive reports whether the simcheck invariant checks (and their
// process-global leak ledger) are compiled in; false here, so
// orchestration layers are free to run sweep points concurrently.
func CheckActive() bool { return false }

// SnapshotLedger copies the per-pool outstanding counts of the leak
// ledger; without the tag there is no ledger and it returns nil.
func SnapshotLedger() map[string]int { return nil }

// PoolOutstanding reports how many objects of the named pool are
// outside their free-list (always 0 without the tag).
func PoolOutstanding(name string) int { return 0 }

// AssertDrained compares the leak ledger against a snapshot and
// reports leaks; without the tag it always passes.
func AssertDrained(snap map[string]int) error { return nil }
