package simx

// Resource models a server with a fixed number of slots and a FIFO wait
// queue: a shared bus or a FIMM channel (capacity 1), or a multi-entry
// buffer drain. AcquireG either grants a slot immediately
// or enqueues the caller; the grantee receives the time spent waiting,
// which the storage models attribute to link- or storage-contention.
//
// Resource also integrates busy time so utilisation can be sampled over
// an interval — the quantity uBus in Equation 2 of the paper.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int

	waitQ FIFO[waiter] // queued acquirers, oldest first

	// busy-time integral bookkeeping
	busyNS     Time // accumulated nanoseconds during which at least one slot was held
	lastChange Time
}

// Grantee receives a Resource slot. Pooled per-operation states
// implement it so queueing for a slot allocates nothing. arg is echoed
// back as a phase discriminator.
type Grantee interface {
	OnGrant(arg uint64, waited Time)
}

type waiter struct {
	g       Grantee
	arg     uint64
	arrived Time
}

// NewResource returns a resource with the given slot count (>=1).
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("simx: resource capacity must be >= 1")
	}
	return &Resource{eng: eng, name: name, capacity: capacity, lastChange: eng.Now()}
}

// InUse reports how many slots are currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports how many acquirers are waiting.
func (r *Resource) QueueLen() int { return r.waitQ.Len() }

func (r *Resource) integrate() {
	now := r.eng.Now()
	if now > r.lastChange {
		dt := now - r.lastChange
		if r.inUse > 0 {
			r.busyNS += dt
		}
		r.lastChange = now
	}
}

// AcquireG requests a slot: g.OnGrant(arg, waited) runs synchronously
// if a slot is free, otherwise when one frees up, in arrival order.
func (r *Resource) AcquireG(g Grantee, arg uint64) {
	if g == nil {
		panic("simx: nil acquire grantee")
	}
	if r.TryAcquire() {
		g.OnGrant(arg, 0)
		return
	}
	r.waitQ.Push(waiter{g: g, arg: arg, arrived: r.eng.Now()})
}

// TryAcquire takes a slot if one is free, reporting success. It never queues.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.capacity {
		return false
	}
	r.integrate()
	r.inUse++
	return true
}

// Release frees one slot, handing it to the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("simx: release of idle resource " + r.name)
	}
	r.integrate()
	r.inUse--
	if r.waitQ.Len() == 0 {
		return
	}
	w := r.waitQ.Pop()
	r.inUse++
	w.g.OnGrant(w.arg, r.eng.Now()-w.arrived)
}

// BusyNS reports the accumulated time during which at least one slot was
// held, up to the current instant.
func (r *Resource) BusyNS() Time {
	r.integrate()
	return r.busyNS
}

// UtilizationSince reports the fraction of the interval [since, now]
// during which the resource was busy, in [0,1]. A zero-length interval
// yields 0. The caller supplies the busy integral it snapshotted at
// `since` (from BusyNS), enabling sliding-window sampling.
func (r *Resource) UtilizationSince(since Time, busyAtSince Time) float64 {
	now := r.eng.Now()
	if now <= since {
		return 0
	}
	return float64(r.BusyNS()-busyAtSince) / float64(now-since)
}
