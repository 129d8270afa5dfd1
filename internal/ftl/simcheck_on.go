//go:build simcheck

package ftl

import (
	"fmt"

	"triplea/internal/topo"
)

// simcheckEnabled gates the runtime invariant checks; see the simx
// package for the convention.
const simcheckEnabled = true

// ckVerifyEvery amortizes the O(mapped pages) bijectivity sweep.
const ckVerifyEvery = 4096

type ckState struct {
	ops uint64
}

// ckMapped validates the pair allocate just linked, and periodically
// re-proves bijectivity of the whole translation state.
func (f *FTL) ckMapped(lpn int64, ppn topo.PPN) {
	if got, ok := f.Lookup(lpn); !ok || got != ppn {
		panic(fmt.Sprintf("simcheck: mapping %d -> %v not installed (found %v, %t)", lpn, ppn, got, ok))
	}
	if back, ok := f.LPNOf(ppn); !ok || back != lpn {
		panic(fmt.Sprintf("simcheck: reverse of %v is %d (%t), want %d", ppn, back, ok, lpn))
	}
	f.ck.ops++
	if f.ck.ops%ckVerifyEvery == 0 {
		if err := f.VerifyBijective(); err != nil {
			panic("simcheck: " + err.Error())
		}
	}
}

// ckUnlinked validates that unlink removed the stale reverse edge.
func (f *FTL) ckUnlinked(lpn int64, old topo.PPN) {
	if back, ok := f.LPNOf(old); ok {
		panic(fmt.Sprintf("simcheck: unlinked page %v still reverse-maps to %d", old, back))
	}
}
