package topo

import (
	"testing"
	"testing/quick"

	"triplea/internal/nand"
	"triplea/internal/units"
)

func testGeometry() Geometry {
	return Geometry{
		Switches:          4,
		ClustersPerSwitch: 16,
		FIMMsPerCluster:   4,
		PackagesPerFIMM:   8,
		Nand:              nand.DefaultParams(),
	}
}

func TestGeometryValidate(t *testing.T) {
	g := testGeometry()
	if err := g.Validate(); err != nil {
		t.Fatalf("paper geometry invalid: %v", err)
	}
	for _, mod := range []func(*Geometry){
		func(g *Geometry) { g.Switches = 0 },
		func(g *Geometry) { g.Switches = 999 },
		func(g *Geometry) { g.ClustersPerSwitch = 0 },
		func(g *Geometry) { g.FIMMsPerCluster = 0 },
		func(g *Geometry) { g.FIMMsPerCluster = 99 },
		func(g *Geometry) { g.PackagesPerFIMM = 0 },
		func(g *Geometry) { g.Nand.PageSizeBytes = 0 },
		func(g *Geometry) { g.Nand.PagesPerBlock = 5000 },
	} {
		bad := testGeometry()
		mod(&bad)
		if bad.Validate() == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := testGeometry()
	// Paper baseline: 4x16 clusters of 4 x 64 GiB FIMMs = 16 TiB.
	if got, want := g.TotalBytes(), 16*1024*units.GiB; got != want {
		t.Errorf("TotalBytes = %d, want %d (16 TiB)", got, want)
	}
	if g.TotalClusters() != 64 || g.TotalFIMMs() != 256 {
		t.Errorf("clusters=%d fimms=%d, want 64/256", g.TotalClusters(), g.TotalFIMMs())
	}
	if g.ParallelUnitsPerFIMM() != 8*2*2 {
		t.Errorf("ParallelUnitsPerFIMM = %d, want 32", g.ParallelUnitsPerFIMM())
	}
}

func TestClusterFIMMFlatRoundTrip(t *testing.T) {
	g := testGeometry()
	for flat := 0; flat < g.TotalClusters(); flat++ {
		c := ClusterFromFlat(g, flat)
		if c.Flat(&g) != flat {
			t.Fatalf("cluster flat %d -> %v -> %d", flat, c, c.Flat(&g))
		}
	}
	for flat := 0; flat < g.TotalFIMMs(); flat++ {
		f := FIMMFromFlat(g, flat)
		if f.Flat(&g) != flat {
			t.Fatalf("fimm flat %d -> %v -> %d", flat, f, f.Flat(&g))
		}
	}
}

func TestRouteAddrRoundTrip(t *testing.T) {
	id := ClusterID{Switch: 3, Cluster: 15}
	if got := ClusterAt(id.Addr()); got != id {
		t.Errorf("ClusterAt(%v.Addr() = %#x) = %v", id, id.Addr(), got)
	}
}

func TestPPNPackUnpack(t *testing.T) {
	p := PackPPN(3, 15, 3, 7, 1, 4095, 255)
	if p.Switch() != 3 || p.Cluster() != 15 || p.FIMMSlot() != 3 ||
		p.Pkg() != 7 || p.Die() != 1 || p.Block() != 4095 || p.Page() != 255 {
		t.Fatalf("round trip failed: %v", p)
	}
	if p.FIMMID() != (FIMMID{ClusterID{3, 15}, 3}) {
		t.Errorf("FIMMID = %v", p.FIMMID())
	}
}

func TestPPNPackPanics(t *testing.T) {
	cases := []func(){
		func() { PackPPN(-1, 0, 0, 0, 0, 0, 0) },
		func() { PackPPN(16, 0, 0, 0, 0, 0, 0) },
		func() { PackPPN(0, 256, 0, 0, 0, 0, 0) },
		func() { PackPPN(0, 0, 16, 0, 0, 0, 0) },
		func() { PackPPN(0, 0, 0, 32, 0, 0, 0) },
		func() { PackPPN(0, 0, 0, 0, 8, 0, 0) },
		func() { PackPPN(0, 0, 0, 0, 0, 1<<20, 0) },
		func() { PackPPN(0, 0, 0, 0, 0, 0, 4096) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: out-of-range pack did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNandAddrPlaneDerivation(t *testing.T) {
	g := testGeometry()
	p := PackPPN(0, 0, 0, 0, 0, 5, 7)
	a := p.NandAddr(&g)
	if a.Plane != 1 { // block 5 is odd -> plane 1
		t.Errorf("plane = %d, want 1", a.Plane)
	}
	if a.Block != 5 || a.Page != 7 || a.Die != 0 {
		t.Errorf("addr = %+v", a)
	}
}

func TestBlockKey(t *testing.T) {
	a := PackPPN(1, 2, 3, 4, 1, 9, 10)
	b := PackPPN(1, 2, 3, 4, 1, 9, 200)
	c := PackPPN(1, 2, 3, 4, 1, 11, 10)
	if a.BlockKey() != b.BlockKey() {
		t.Error("same block, different keys")
	}
	if a.BlockKey() == c.BlockKey() {
		t.Error("different blocks share a key")
	}
	if a.BlockKey().Page() != 0 {
		t.Error("BlockKey retains page bits")
	}
}

func TestStrings(t *testing.T) {
	c := ClusterID{Switch: 2, Cluster: 7}
	if c.String() != "sw2/cl7" {
		t.Errorf("ClusterID.String = %q", c.String())
	}
	f := FIMMID{c, 3}
	if f.String() != "sw2/cl7/f3" {
		t.Errorf("FIMMID.String = %q", f.String())
	}
	p := PackPPN(1, 2, 3, 4, 1, 9, 10)
	if p.String() != "sw1/cl2/f3/pk4/d1/b9/pg10" {
		t.Errorf("PPN.String = %q", p.String())
	}
}

// Property: packing and unpacking is lossless for all in-range tuples.
func TestPropertyPPNRoundTrip(t *testing.T) {
	f := func(sw, cl, fm, pk, die uint8, block uint32, page uint16) bool {
		s, c, fmm := int(sw)&maxSwitch, int(cl)&maxCluster, int(fm)&maxFIMM
		p, d := int(pk)&maxPkg, int(die)&maxDie
		b, pg := int(block)&maxBlock, int(page)&maxPage
		ppn := PackPPN(s, c, fmm, p, d, b, pg)
		return ppn.Switch() == s && ppn.Cluster() == c && ppn.FIMMSlot() == fmm &&
			ppn.Pkg() == p && ppn.Die() == d && ppn.Block() == b && ppn.Page() == pg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
