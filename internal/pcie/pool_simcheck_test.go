//go:build simcheck

package pcie

import (
	"strings"
	"testing"

	"triplea/internal/simx"
)

// TestLeakedPacketIsAttributable deliberately drops a packet acquired
// from a Pool and checks the leak ledger names the pcie.Packet pool, so
// a leak anywhere in a run is attributable to its pool.
func TestLeakedPacketIsAttributable(t *testing.T) {
	snap := simx.SnapshotLedger()
	var p Pool
	pkt := p.Get() // leaked: never Put
	err := simx.AssertDrained(snap)
	if err == nil {
		t.Fatal("leaked packet not reported by the ledger")
	}
	if !strings.Contains(err.Error(), "pcie.Packet") {
		t.Fatalf("leak report %q does not name pcie.Packet", err)
	}
	p.Put(pkt) // repair the ledger for later tests in this process
	if err := simx.AssertDrained(snap); err != nil {
		t.Fatalf("ledger did not return to baseline after Put: %v", err)
	}
}
