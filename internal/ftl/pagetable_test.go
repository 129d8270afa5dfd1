package ftl

import (
	"maps"
	"slices"
	"testing"

	"triplea/internal/nand"
	"triplea/internal/topo"
)

// wideGeometry spans two radix root slots without filling the second:
// 3 FIMMs of 2^23 pages, so TotalPages is 1.5 root-slot spans. Its 2048
// blocks per plane keep the FTL's per-unit block tables small.
func wideGeometry() topo.Geometry {
	n := nand.DefaultParams()
	n.DiesPerPackage = 1
	n.PlanesPerDie = 2
	n.BlocksPerPlane = 2048
	n.PagesPerBlock = 2048
	return topo.Geometry{
		Switches:          1,
		ClustersPerSwitch: 3,
		FIMMsPerCluster:   1,
		PackagesPerFIMM:   1,
		Nand:              n,
	}
}

// TestPageTableNodeBoundaries maps LPNs on both sides of the table's
// leaf, inner-node and root-slot boundaries, then overwrites, drops and
// restores them. After every step each LPN and its two neighbours must
// read back as the model says, the counts must agree, and the ordered
// walk, stopped after every prefix, must visit exactly the model's LPNs
// in ascending order.
func TestPageTableNodeBoundaries(t *testing.T) {
	g := wideGeometry()
	total := g.TotalPages().Int64()
	if total%(1<<rootShift) == 0 {
		t.Fatalf("TotalPages %d fills its last root slot", total)
	}
	lpns := []int64{
		0,
		radixFan - 1, radixFan, // last of leaf 0, first of leaf 1
		1<<(2*radixBits) - 1, 1 << (2 * radixBits), // last leaf of inner node 0, first of inner node 1
		1<<rootShift - 1, 1 << rootShift, // last LPN of root slot 0, first of slot 1
		total - 1,
	}
	f := New(g)
	want := map[int64]topo.PPN{}
	lost := 0
	check := func(step string) {
		t.Helper()
		for _, lpn := range lpns {
			for _, l := range []int64{lpn - 1, lpn, lpn + 1} {
				w, mapped := want[l]
				if got, ok := f.Lookup(l); ok != mapped || got != w {
					t.Fatalf("%s: Lookup(%d) = %v,%t; want %v,%t", step, l, got, ok, w, mapped)
				}
			}
		}
		if f.MappedPages() != len(want) || f.LostPages() != lost {
			t.Fatalf("%s: %d mapped, %d lost; want %d, %d", step, f.MappedPages(), f.LostPages(), len(want), lost)
		}
		if err := f.VerifyBijective(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		order := slices.Sorted(maps.Keys(want))
		for stop := 1; stop <= len(order)+1; stop++ {
			var got []int64
			f.ForEachMapping(func(lpn int64, ppn topo.PPN) bool {
				if ppn != want[lpn] {
					t.Fatalf("%s: walk visited %d -> %v; want %v", step, lpn, ppn, want[lpn])
				}
				got = append(got, lpn)
				return len(got) < stop
			})
			if w := order[:min(stop, len(order))]; !slices.Equal(got, w) {
				t.Fatalf("%s: walk stopped after %d visited %v; want %v", step, stop, got, w)
			}
		}
	}

	check("empty")
	for _, lpn := range lpns {
		ppn, need, err := f.Prepopulate(lpn)
		if err != nil || !need {
			t.Fatalf("Prepopulate(%d) = %v,%t,%v", lpn, ppn, need, err)
		}
		want[lpn] = ppn
		check("set")
	}
	dense := maps.Clone(want)
	for _, lpn := range lpns {
		wa, err := f.AllocateWrite(lpn)
		if err != nil || !wa.HasOld || wa.Old != want[lpn] {
			t.Fatalf("AllocateWrite(%d) = %+v, %v; old mapping %v", lpn, wa, err, want[lpn])
		}
		want[lpn] = wa.New
		check("overwrite")
	}
	for _, lpn := range lpns {
		if ppn, ok := f.DropMapping(lpn); !ok || ppn != want[lpn] {
			t.Fatalf("DropMapping(%d) = %v,%t; want %v", lpn, ppn, ok, want[lpn])
		}
		delete(want, lpn)
		lost++
		check("delete")
	}
	// A lost LPN comes back out of place: its dense home is unreadable.
	for _, lpn := range lpns {
		ppn, need, err := f.Prepopulate(lpn)
		if err != nil || !need || ppn == dense[lpn] {
			t.Fatalf("Prepopulate of lost LPN %d = %v,%t,%v; dense home %v", lpn, ppn, need, err, dense[lpn])
		}
		want[lpn] = ppn
		lost--
		check("restore")
	}
}
