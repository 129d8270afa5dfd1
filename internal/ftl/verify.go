package ftl

import (
	"fmt"

	"triplea/internal/topo"
)

// VerifyBijective proves that the translation state describes a
// bijection: every reverse entry inverts a live pageMap entry, no two
// LPNs share a physical page, and every mapping without a reverse entry
// is a dense prepopulated page sitting at its LPN's analytic home
// (those are deliberately kept out of the reverse index — LPNOf inverts
// them arithmetically).
//
// Tests call it directly; builds with -tags simcheck also run it
// periodically from the allocation path.
func (f *FTL) VerifyBijective() error {
	for ppn, lpn := range f.reverse {
		if got, ok := f.pageMap[lpn]; !ok {
			return fmt.Errorf("ftl: reverse entry %v -> %d has no forward mapping", ppn, lpn)
		} else if got != ppn {
			return fmt.Errorf("ftl: reverse entry %v -> %d disagrees with forward mapping %d -> %v", ppn, lpn, lpn, got)
		}
	}
	seen := make(map[topo.PPN]int64, len(f.pageMap))
	//simlint:ordered order-independent validation scan
	for lpn, ppn := range f.pageMap {
		if prev, dup := seen[ppn]; dup {
			return fmt.Errorf("ftl: LPNs %d and %d both map to %v", prev, lpn, ppn)
		}
		seen[ppn] = lpn
		if back, ok := f.reverse[ppn]; ok {
			if back != lpn {
				return fmt.Errorf("ftl: mapping %d -> %v reversed to %d", lpn, ppn, back)
			}
			continue
		}
		fimmFlat, fp := f.home(lpn)
		if f.densePPN(fimmFlat, fp) != ppn {
			return fmt.Errorf("ftl: mapping %d -> %v has no reverse entry and is not the LPN's dense home", lpn, ppn)
		}
	}
	return nil
}
