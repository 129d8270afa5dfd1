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
	seen := make(map[topo.PPN]int64, f.pages.mapped)
	var err error
	f.pages.walk(func(lpn int64, ppn topo.PPN) bool {
		if prev, dup := seen[ppn]; dup {
			err = fmt.Errorf("ftl: LPNs %d and %d both map to %v", prev, lpn, ppn)
			return false
		}
		seen[ppn] = lpn
		back, ok := f.LPNOf(ppn)
		if !ok {
			err = fmt.Errorf("ftl: mapping %d -> %v lands on a page that is not valid", lpn, ppn)
			return false
		}
		if back != lpn {
			err = fmt.Errorf("ftl: mapping %d -> %v reversed to %d", lpn, ppn, back)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	valid := 0
	for _, fa := range f.fimms {
		if fa == nil {
			continue
		}
		for _, c := range fa.blocks.All() {
			if *c == nil {
				continue
			}
			for j := range *c {
				valid += int((*c)[j].valid)
			}
		}
	}
	if valid != f.pages.mapped {
		return fmt.Errorf("ftl: %d valid pages but %d mappings", valid, f.pages.mapped)
	}
	return nil
}
