package simx

// Resource models a server with a fixed number of slots and a FIFO wait
// queue: a shared bus (capacity 1), a flash die (capacity 1), or a
// multi-entry buffer drain. AcquireG either grants a slot immediately
// or enqueues the caller; the grant receives the time spent waiting,
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
	busyNS     Time // accumulated nanoseconds with at least one slot held
	lastChange Time
}

// Grantee receives a resource slot. Pooled per-operation states
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
	r := new(Resource)
	r.Init(eng, name, capacity)
	return r
}

// Init sets up the zero Resource r in place, with the given slot count
// (>=1), so owners can hold their resources by value.
func (r *Resource) Init(eng *Engine, name string, capacity int) {
	if capacity < 1 {
		panic("simx: resource capacity must be >= 1")
	}
	r.eng, r.name, r.capacity, r.lastChange = eng, name, capacity, eng.Now()
}

// InUse reports how many slots are currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports how many acquirers are waiting.
func (r *Resource) QueueLen() int { return r.waitLen }

func (r *Resource) integrate() {
	now := r.eng.Now()
	if now > r.lastChange {
		if r.inUse > 0 {
			r.busyNS += now - r.lastChange
		}
		r.lastChange = now
	}
}

// AcquireG requests a slot: g.OnGrant(arg, waited) runs synchronously
// if a slot is free, otherwise when one frees up. Queued waiters live on
// pooled nodes recycled at grant time, so acquiring allocates nothing.
func (r *Resource) AcquireG(g Grantee, arg uint64) {
	if g == nil {
		panic("simx: nil acquire grantee")
	}
	if r.grantNow() {
		g.OnGrant(arg, 0)
		return
	}
	w := r.newWaiter()
	w.g, w.arg = g, arg
	r.enqueue(w)
}

// grantNow takes a free slot if available, reporting success.
func (r *Resource) grantNow() bool {
	if r.inUse >= r.capacity {
		return false
	}
	r.integrate()
	r.inUse++
	return true
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
		w = &waiter{}
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
	waited := r.eng.Now() - w.arrived
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
