package ftl

import (
	"fmt"

	"triplea/internal/topo"
)

// VerifyBijective proves that the translation state describes a
// bijection between mapped LPNs and valid pages: no two LPNs share a
// physical page, every mapping lands on a valid page whose block maps
// it back to the same LPN (the LPN a written block recorded when it
// programmed the page, or the analytic inverse of a dense page's home),
// and the blocks hold no valid page that no mapping points at.
//
// Tests call it directly; builds with -tags simcheck also run it
// periodically from the allocation path.
func (f *FTL) VerifyBijective() error {
	seen := make(map[topo.PPN]int64, len(f.pageMap))
	//simlint:ordered order-independent validation scan
	for lpn, ppn := range f.pageMap {
		if prev, dup := seen[ppn]; dup {
			return fmt.Errorf("ftl: LPNs %d and %d both map to %v", prev, lpn, ppn)
		}
		seen[ppn] = lpn
		back, ok := f.LPNOf(ppn)
		if !ok {
			return fmt.Errorf("ftl: mapping %d -> %v lands on a page that is not valid", lpn, ppn)
		}
		if back != lpn {
			return fmt.Errorf("ftl: mapping %d -> %v reversed to %d", lpn, ppn, back)
		}
	}
	valid := 0
	for _, fa := range f.fimms {
		if fa == nil {
			continue
		}
		for _, u := range fa.units {
			for _, bi := range u.touched {
				if bi != nil {
					valid += bi.valid
				}
			}
		}
	}
	if valid != len(f.pageMap) {
		return fmt.Errorf("ftl: %d valid pages but %d mappings", valid, len(f.pageMap))
	}
	return nil
}
