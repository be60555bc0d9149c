package simx

// Resource models a server with a fixed number of slots and a FIFO wait
// queue: a shared bus (capacity 1), a flash die (capacity 1), or a
// multi-entry buffer drain. AcquireG either grants a slot immediately
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

	waitHead *waiter
	waitTail *waiter
	waitLen  int
	freeW    *waiter // recycled waiter nodes

	// busy-time integral bookkeeping
	busyNS     Time // accumulated (inUse>0) busy nanoseconds for capacity-1 semantics
	weightedNS Time // accumulated inUse-weighted nanoseconds (for capacity>1)
	lastChange Time

	// statistics
	grants    uint64
	totalWait Time
	maxQueue  int
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
	next    *waiter
	ck      ckLife
}

// NewResource returns a resource with the given slot count (>=1).
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("simx: resource capacity must be >= 1")
	}
	return &Resource{eng: eng, name: name, capacity: capacity, lastChange: eng.Now()}
}

// Name reports the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity reports the number of slots.
func (r *Resource) Capacity() int { return r.capacity }

// InUse reports how many slots are currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports how many acquirers are waiting.
func (r *Resource) QueueLen() int { return r.waitLen }

func (r *Resource) integrate() {
	now := r.eng.Now()
	if now > r.lastChange {
		dt := now - r.lastChange
		if r.inUse > 0 {
			r.busyNS += dt
		}
		r.weightedNS += dt * Time(r.inUse)
		r.lastChange = now
	}
}

// AcquireG requests a slot: g.OnGrant(arg, waited) runs synchronously
// if a slot is free, otherwise when one frees up. Queued waiters live
// on pooled nodes recycled at grant time.
func (r *Resource) AcquireG(g Grantee, arg uint64) {
	if g == nil {
		panic("simx: nil acquire grantee")
	}
	if r.TryAcquire() {
		g.OnGrant(arg, 0)
		return
	}
	w := r.newWaiter()
	w.g, w.arg = g, arg
	r.enqueue(w)
}

// newWaiter pops a recycled waiter node or allocates a fresh one.
func (r *Resource) newWaiter() *waiter {
	w := r.freeW
	if w != nil {
		r.freeW = w.next
		if simcheckEnabled {
			w.ck.Checkout("simx.waiter")
		}
		w.next = nil
	} else {
		w = &waiter{} //simlint:coldalloc pool miss: waiter free-list refill
		if simcheckEnabled {
			w.ck.Fresh("simx.waiter")
		}
	}
	w.arrived = r.eng.Now()
	return w
}

// recycleWaiter pushes a granted waiter node back onto the free-list —
// the registered release point of the simx.waiter pool.
func (r *Resource) recycleWaiter(w *waiter) {
	w.g = nil
	if simcheckEnabled {
		w.ck.Release("simx.waiter")
	}
	w.next = r.freeW
	r.freeW = w
}

func (r *Resource) enqueue(w *waiter) {
	if r.waitTail == nil {
		r.waitHead = w
	} else {
		r.waitTail.next = w
	}
	r.waitTail = w
	r.waitLen++
	if r.waitLen > r.maxQueue {
		r.maxQueue = r.waitLen
	}
}

// TryAcquire takes a slot if one is free, reporting success. It never queues.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.capacity {
		return false
	}
	r.integrate()
	r.inUse++
	r.grants++
	return true
}

// Release frees one slot, handing it to the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("simx: release of idle resource " + r.name)
	}
	r.integrate()
	r.inUse--
	if r.waitHead == nil {
		return
	}
	w := r.waitHead
	r.waitHead = w.next
	if r.waitHead == nil {
		r.waitTail = nil
	}
	r.waitLen--
	r.inUse++
	r.grants++
	waited := r.eng.Now() - w.arrived
	r.totalWait += waited
	// Recycle the node before invoking: the grantee often re-queues
	// immediately and reuses it.
	g, arg := w.g, w.arg
	r.recycleWaiter(w)
	g.OnGrant(arg, waited)
}

// BusyNS reports the accumulated time during which at least one slot was
// held, up to the current instant.
func (r *Resource) BusyNS() Time {
	r.integrate()
	return r.busyNS
}

// WeightedBusyNS reports the slot-weighted busy integral (slot-ns).
func (r *Resource) WeightedBusyNS() Time {
	r.integrate()
	return r.weightedNS
}

// Grants reports how many acquisitions have been granted.
func (r *Resource) Grants() uint64 { return r.grants }

// TotalWait reports the summed queueing delay over all grants.
func (r *Resource) TotalWait() Time { return r.totalWait }

// MaxQueue reports the deepest wait queue observed.
func (r *Resource) MaxQueue() int { return r.maxQueue }

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
