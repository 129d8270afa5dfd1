//go:build simcheck

package array

import (
	"testing"

	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
)

// These tests pin the two trickiest hand-placed release points of the
// pooled hot path, with the lifecycle guard and leak ledger armed:
//
//   - the GC-race retry: array.deliver must recycle the raced read's
//     down/up packets and command, keep the pageRef across retryRead,
//     and release everything exactly once when the retry lands;
//   - the host-write RetireMark handshake: the completion ack (at the
//     host) and the flush (at the endpoint) are concurrent events with
//     no fixed order, and whichever runs second must be the command's
//     single release point.
//
// A double release panics via PoolCheck; a missed release fails the
// ledger drain check with the pool's name.

// TestGCRaceRetryRecyclesPools forces a read to lose the race with GC
// (remap + erase while the packet is in flight) and then checks every
// pool drained: the abandoned attempt's packets and command must be
// recycled before retryRead re-resolves, and the retained pageRef must
// be released exactly once at final delivery.
func TestGCRaceRetryRecyclesPools(t *testing.T) {
	cfg := testConfig()
	a, _ := New(cfg)
	if _, err := a.ensureMapped(0); err != nil {
		t.Fatal(err)
	}
	old, _ := a.FTL().Lookup(0)
	drainSnap := simx.SnapshotLedger()
	a.Submit(trace.Request{Op: trace.Read, LPN: 0, Pages: 1})
	wa, err := a.FTL().Relocate(0, topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a.markStaleDevice(wa.Old)
	if err := a.pkgAt(wa.New).ForcePopulate(wa.New.NandAddr(&cfg.Geometry)); err != nil {
		t.Fatal(err)
	}
	if err := a.pkgAt(old).ForceErase(old.NandAddr(&cfg.Geometry)); err != nil {
		t.Fatal(err)
	}
	a.Engine().Run()
	if a.ReadRetries() == 0 {
		t.Fatal("retry path not taken; the test forced nothing")
	}
	if a.InFlight() != 0 {
		t.Fatalf("request stuck after GC race")
	}
	if err := simx.AssertDrained(drainSnap); err != nil {
		t.Fatalf("GC-race retry leaked pooled objects: %v", err)
	}
}

// TestRetireMarkHandshakeRecyclesCommands runs a burst of host writes
// end to end. Each write's ack delivery and flush retirement race; the
// RetireMark protocol must release each command exactly once whichever
// event runs second. Array.Run's built-in drain assert plus the
// explicit one here fail with the pool's name if a command (or its
// packets) is leaked, and PoolCheck panics if one is released twice.
func TestRetireMarkHandshakeRecyclesCommands(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drainSnap := simx.SnapshotLedger()
	var reqs []trace.Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, trace.Request{
			Arrival: simx.Time(i) * 2 * simx.Microsecond,
			Op:      trace.Write, LPN: int64(i), Pages: 1,
		})
	}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 16 {
		t.Fatalf("recorded %d completions, want 16", rec.Count())
	}
	if got := simx.PoolOutstanding("cluster.Command"); got != drainSnap["cluster.Command"] {
		t.Fatalf("cluster.Command outstanding = %d after run, want %d", got, drainSnap["cluster.Command"])
	}
	if err := simx.AssertDrained(drainSnap); err != nil {
		t.Fatalf("RetireMark handshake leaked pooled objects: %v", err)
	}
}
