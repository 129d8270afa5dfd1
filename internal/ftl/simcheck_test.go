//go:build simcheck

package ftl

import (
	"testing"

	"triplea/internal/topo"
)

// TestSimcheckBijectiveUnderChurn hammers four hot LPNs on one FIMM so
// overwrites force constant unlink/relink churn and GC cycles, running
// long enough to trigger the periodic full bijectivity sweep several
// times, then proves the final state directly.
func TestSimcheckBijectiveUnderChurn(t *testing.T) {
	f := New(tinyGeometry(), WithGCThreshold(4)) // pressure early
	id := f.HomeFIMM(0)
	for i := 0; i < 2*ckVerifyEvery; i++ {
		if f.GCPressure(id) {
			runTestGC(t, f, id)
		}
		if _, err := f.AllocateWriteAt(int64(i%4), id); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := f.VerifyBijective(); err != nil {
		t.Fatal(err)
	}
}

// runTestGC executes one GC round if a victim exists; under pressure
// with no reclaimable block yet, allocation can still proceed from the
// remaining free blocks until one fills.
func runTestGC(t *testing.T, f *FTL, id topo.FIMMID) {
	t.Helper()
	plan, ok := f.PlanGC(id, nil)
	if !ok {
		return
	}
	for _, m := range plan.Moves {
		if _, err := f.AllocateGCMove(m); err != nil {
			t.Fatalf("AllocateGCMove: %v", err)
		}
	}
	if err := f.CompleteGCErase(plan); err != nil {
		t.Fatalf("CompleteGCErase: %v", err)
	}
}

// TestSimcheckDetectsBrokenReverse corrupts the LPN the page's block
// recorded and expects both the full sweep and the incremental hook to
// object.
func TestSimcheckDetectsBrokenReverse(t *testing.T) {
	f := New(tinyGeometry())
	wa, err := f.AllocateWrite(3)
	if err != nil {
		t.Fatal(err)
	}
	f.blockOf(wa.New).lpns[wa.New.Page()] = 99 // break ppn -> lpn
	if err := f.VerifyBijective(); err == nil {
		t.Fatal("VerifyBijective accepted a corrupted reverse index")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ckMapped accepted a corrupted reverse index")
		}
	}()
	f.ckMapped(3, wa.New)
}

// TestSimcheckDetectsDoubleMapping maps two LPNs onto one physical page.
func TestSimcheckDetectsDoubleMapping(t *testing.T) {
	f := New(tinyGeometry())
	wa, err := f.AllocateWrite(3)
	if err != nil {
		t.Fatal(err)
	}
	f.pages.set(f.pages.slot(4), wa.New) // second LPN claims the same page
	if err := f.VerifyBijective(); err == nil {
		t.Fatal("VerifyBijective accepted two LPNs on one page")
	}
}
