//go:build simcheck

package simx

import (
	"fmt"
	"sort"
	"strings"
)

// simcheckEnabled gates the runtime invariant checks. Call sites are
// written `if simcheckEnabled { ... }` so the default build compiles
// the checks away entirely; `go test -tags simcheck` turns them on.
const simcheckEnabled = true

// ckVerifyEvery amortizes the O(n) full-heap verification: one scan
// per this many schedule/step operations.
const ckVerifyEvery = 1024

// ckState carries the checker's bookkeeping inside Engine. In the
// default build it is an empty struct, so enabling the tag is the only
// thing that changes the Engine's size.
type ckState struct {
	ops uint64
}

// PoolCheck is the pooled-object lifecycle guard (see simcheck_off.go
// for the no-op build). It tracks whether the embedding object is
// currently on its pool's free-list and panics on double-release and
// use-after-release — the two bugs an intrusive free-list can smuggle
// past the type system. Panic messages carry the owning pool's name
// and the guard's address (which pins the embedding object's identity)
// so a failure is attributable without a debugger.
//
// Fresh/Checkout/Release also feed the package leak ledger: a per-pool
// count of objects currently outside their free-list. SnapshotLedger
// and AssertDrained turn that into an end-of-run drain check.
type PoolCheck struct {
	freed bool
}

// Fresh records a newly allocated pooled object (the pool's miss
// branch, where no free-list node was available). The zero PoolCheck is
// already in the checked-out state, so only the ledger moves.
func (c *PoolCheck) Fresh(what string) {
	ckLedger[what]++
}

// Checkout marks the object as taken from its pool's free-list.
func (c *PoolCheck) Checkout(what string) {
	if !c.freed {
		panic(fmt.Sprintf("simcheck: %s %p: free-list holds an object that was never released", what, c))
	}
	c.freed = false
	ckLedger[what]++
}

// Release marks the object as returned to its pool.
func (c *PoolCheck) Release(what string) {
	if c.freed {
		panic(fmt.Sprintf("simcheck: %s %p: double release of pooled object", what, c))
	}
	c.freed = true
	ckLedger[what]--
}

// InUse asserts the object has not been released.
func (c *PoolCheck) InUse(what string) {
	if c.freed {
		panic(fmt.Sprintf("simcheck: %s %p: use of object after release to its pool", what, c))
	}
}

// ckLedger counts, per pool name, the objects currently checked out of
// (or never yet returned to) their free-list. The simulator is
// single-threaded by construction, so a plain map suffices. The ledger
// is process-global, so the experiments suite runs its sweeps on one
// worker whenever CheckActive reports the tag is on; two runs touching
// it at once would be a concurrent map write, which the Go runtime
// reports as a fatal error.
var ckLedger = map[string]int{}

// CheckActive reports whether the simcheck invariant checks (and their
// process-global leak ledger) are compiled in. Orchestration layers
// use it to fall back to serial execution: the ledger is shared state
// that concurrent runs would race on.
func CheckActive() bool { return true }

// SnapshotLedger copies the current per-pool outstanding counts.
// Pools with a zero count are omitted.
func SnapshotLedger() map[string]int {
	snap := make(map[string]int, len(ckLedger))
	for name, n := range ckLedger {
		if n != 0 {
			snap[name] = n
		}
	}
	return snap
}

// PoolOutstanding reports how many objects of the named pool are
// currently outside their free-list.
func PoolOutstanding(name string) int { return ckLedger[name] }

// AssertDrained compares the ledger against a snapshot taken before a
// run and returns an error naming every pool whose outstanding count
// grew — a leaked pooled object. Comparing against a snapshot (rather
// than zero) tolerates objects legitimately held by other engines in
// the same test process.
func AssertDrained(snap map[string]int) error {
	var leaks []string
	for name, n := range ckLedger {
		if n > snap[name] {
			leaks = append(leaks, fmt.Sprintf("%s: %d outstanding (was %d)", name, n, snap[name]))
		}
	}
	if len(leaks) == 0 {
		return nil
	}
	sort.Strings(leaks)
	return fmt.Errorf("simcheck: pooled objects leaked: %s", strings.Join(leaks, "; "))
}

// ckLife is the engine-internal alias for the guard.
type ckLife = PoolCheck

// ckSchedule validates a newly pushed event and periodically sweeps
// the whole heap.
func (e *Engine) ckSchedule(ev *Event) {
	if ev.when < e.now {
		panic(fmt.Sprintf("simcheck: scheduled event at %v is in the past (now %v)", ev.when, e.now))
	}
	e.ckMaybeVerifyHeap()
}

// ckStep enforces event-time monotonicity: the clock never moves
// backwards, because the heap always yields the earliest pending event.
func (e *Engine) ckStep(ev *Event) {
	if ev.when < e.now {
		panic(fmt.Sprintf("simcheck: next event at %v precedes now %v; event order violated", ev.when, e.now))
	}
	e.ckMaybeVerifyHeap()
}

func (e *Engine) ckMaybeVerifyHeap() {
	e.ck.ops++
	if e.ck.ops%ckVerifyEvery == 0 {
		e.ckVerifyHeap()
	}
}

// ckVerifyHeap proves two properties of the pending-event heap: no
// child (slots heapArity*i+1 .. heapArity*i+heapArity) fires before
// its parent i, and no pending event is in the past. It runs only
// between heap operations, never while a handler holds the root slot
// empty (see Step): that slot's node is recycled.
func (e *Engine) ckVerifyHeap() {
	if e.hole {
		panic("simcheck: heap swept while its root slot is empty")
	}
	h := e.events
	for i, ev := range h {
		if ev.when < e.now {
			panic(fmt.Sprintf("simcheck: pending event at %v is before now %v", ev.when, e.now))
		}
		first := heapArity*i + 1
		for c := first; c < first+heapArity && c < len(h); c++ {
			if h[c].before(ev) {
				panic(fmt.Sprintf("simcheck: heap property violated between slot %d and child %d", i, c))
			}
		}
	}
}
