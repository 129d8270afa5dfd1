package ftl

import (
	"testing"
	"testing/quick"

	"triplea/internal/nand"
	"triplea/internal/topo"
)

// tinyGeometry keeps block counts small so GC paths are reachable in
// tests: 2 switches x 2 clusters x 2 FIMMs, 2 packages of 1 die x 2
// planes, 4 blocks/plane, 4 pages/block = 128 pages per FIMM.
func tinyGeometry() topo.Geometry {
	n := nand.DefaultParams()
	n.DiesPerPackage = 1
	n.PlanesPerDie = 2
	n.BlocksPerPlane = 4
	n.PagesPerBlock = 4
	return topo.Geometry{
		Switches:          2,
		ClustersPerSwitch: 2,
		FIMMsPerCluster:   2,
		PackagesPerFIMM:   2,
		Nand:              n,
	}
}

// paperGeometry is the paper's default array: 4 switches x 16 clusters
// x 4 FIMMs x 8 packages, 2^32 pages.
func paperGeometry() topo.Geometry {
	return topo.Geometry{
		Switches:          4,
		ClustersPerSwitch: 16,
		FIMMsPerCluster:   4,
		PackagesPerFIMM:   8,
		Nand:              nand.DefaultParams(),
	}
}

func TestLayoutStrings(t *testing.T) {
	if LayoutClustered.String() != "clustered" || LayoutStriped.String() != "striped" ||
		Layout(9).String() != "unknown" {
		t.Error("Layout.String mismatch")
	}
	if WriteHost.String() != "host" || WriteGC.String() != "gc" ||
		WriteMigration.String() != "migration" || WriteKind(9).String() != "unknown" {
		t.Error("WriteKind.String mismatch")
	}
}

func TestHomeClustered(t *testing.T) {
	g := tinyGeometry()
	f := New(g)
	per := g.PagesPerFIMM().Int64()
	if got := f.HomeFIMM(0); got.Flat(&g) != 0 {
		t.Errorf("LPN 0 home = %v", got)
	}
	if got := f.HomeFIMM(per); got.Flat(&g) != 1 {
		t.Errorf("LPN %d home = %v, want FIMM 1", per, got)
	}
	last := g.TotalPages().Int64() - 1
	if got := f.HomeFIMM(last); got.Flat(&g) != g.TotalFIMMs()-1 {
		t.Errorf("last LPN home = %v", got)
	}
}

func TestHomeStriped(t *testing.T) {
	g := tinyGeometry()
	f := New(g, WithLayout(LayoutStriped))
	n := int64(g.TotalFIMMs())
	for lpn := int64(0); lpn < 2*n; lpn++ {
		if got := f.HomeFIMM(lpn); got.Flat(&g) != int(lpn%n) {
			t.Fatalf("striped LPN %d home = %v", lpn, got)
		}
	}
}

// TestLPNRangeChecked pins the answers every LPN-taking call gives for
// an LPN outside [0, TotalPages), on the tiny geometry and on the
// default one, whose TotalPages is a whole number of radix root slots:
// allocations report an error, queries report not mapped, and the
// calls that need a home FIMM panic.
func TestLPNRangeChecked(t *testing.T) {
	for _, g := range []topo.Geometry{tinyGeometry(), paperGeometry()} {
		total := g.TotalPages().Int64()
		for _, lpn := range []int64{-1, -5, total, total + 1, -1 << 62} {
			f := New(g)
			if _, err := f.AllocateWrite(lpn); err == nil {
				t.Errorf("AllocateWrite(%d) of %d pages accepted", lpn, total)
			}
			if _, err := f.AllocateWriteAt(lpn, topo.FIMMID{}); err == nil {
				t.Errorf("AllocateWriteAt(%d) of %d pages accepted", lpn, total)
			}
			if _, err := f.Relocate(lpn, topo.FIMMID{}); err == nil {
				t.Errorf("Relocate(%d) of %d pages accepted", lpn, total)
			}
			if _, _, err := f.Prepopulate(lpn); err == nil {
				t.Errorf("Prepopulate(%d) of %d pages accepted", lpn, total)
			}
			if ppn, ok := f.Lookup(lpn); ok || ppn != 0 {
				t.Errorf("Lookup(%d) of %d pages = %v,%t, want 0,false", lpn, total, ppn, ok)
			}
			if ppn, ok := f.DropMapping(lpn); ok || ppn != 0 {
				t.Errorf("DropMapping(%d) of %d pages = %v,%t, want 0,false", lpn, total, ppn, ok)
			}
			if _, err := f.AllocateGCMove(GCMove{LPN: lpn}); err == nil {
				t.Errorf("AllocateGCMove of LPN %d of %d pages accepted", lpn, total)
			}
			if _, ok := f.FallbackFIMM(lpn); ok {
				t.Errorf("FallbackFIMM(%d) of %d pages found a FIMM", lpn, total)
			}
			for _, c := range []struct {
				name string
				call func(int64) topo.FIMMID
			}{{"HomeFIMM", f.HomeFIMM}, {"ResidentFIMM", f.ResidentFIMM}} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s(%d) of %d pages did not panic", c.name, lpn, total)
						}
					}()
					c.call(lpn)
				}()
			}
			if f.MappedPages() != 0 || f.LostPages() != 0 {
				t.Errorf("LPN %d of %d pages left %d mapped, %d lost", lpn, total, f.MappedPages(), f.LostPages())
			}
		}
	}
}

func TestPrepopulateDense(t *testing.T) {
	g := tinyGeometry()
	f := New(g)
	ppn, need, err := f.Prepopulate(5)
	if err != nil || !need {
		t.Fatalf("Prepopulate: ppn=%v need=%v err=%v", ppn, need, err)
	}
	// Same LPN again: already mapped, no device work.
	ppn2, need2, err := f.Prepopulate(5)
	if err != nil || need2 || ppn2 != ppn {
		t.Fatalf("re-Prepopulate: ppn=%v need=%v err=%v", ppn2, need2, err)
	}
	got, ok := f.Lookup(5)
	if !ok || got != ppn {
		t.Fatalf("Lookup(5) = %v,%v", got, ok)
	}
	// Dense pages invert back to their LPN.
	lpn, ok := f.LPNOf(ppn)
	if !ok || lpn != 5 {
		t.Errorf("LPNOf(%v) = %d,%v, want 5", ppn, lpn, ok)
	}
	if f.Stats().Prepopulated != 1 {
		t.Errorf("Prepopulated = %d, want 1 (re-prepopulate is a no-op)", f.Stats().Prepopulated)
	}
}

func TestPrepopulateSpreadsAcrossUnits(t *testing.T) {
	g := tinyGeometry()
	f := New(g)
	seen := map[int]bool{}
	for lpn := int64(0); lpn < int64(g.ParallelUnitsPerFIMM()); lpn++ {
		ppn, _, err := f.Prepopulate(lpn)
		if err != nil {
			t.Fatal(err)
		}
		plane := ppn.Block() % g.Nand.PlanesPerDie
		seen[unitIndex(&g, ppn.Pkg(), ppn.Die(), plane)] = true
	}
	if len(seen) != g.ParallelUnitsPerFIMM() {
		t.Errorf("consecutive LPNs used %d units, want %d", len(seen), g.ParallelUnitsPerFIMM())
	}
}

func TestAllocateWriteOverwrite(t *testing.T) {
	g := tinyGeometry()
	f := New(g)
	wa1, err := f.AllocateWrite(7)
	if err != nil {
		t.Fatal(err)
	}
	if wa1.HasOld {
		t.Error("first write has an old page")
	}
	if wa1.New.FIMMID() != f.HomeFIMM(7) {
		t.Errorf("write landed on %v, home %v", wa1.New.FIMMID(), f.HomeFIMM(7))
	}
	wa2, err := f.AllocateWrite(7)
	if err != nil {
		t.Fatal(err)
	}
	if !wa2.HasOld || wa2.Old != wa1.New {
		t.Errorf("overwrite old = %+v, want %v", wa2, wa1.New)
	}
	if got, _ := f.Lookup(7); got != wa2.New {
		t.Errorf("Lookup after overwrite = %v", got)
	}
	// Reverse map follows.
	if lpn, ok := f.LPNOf(wa2.New); !ok || lpn != 7 {
		t.Errorf("LPNOf(new) = %d,%v", lpn, ok)
	}
	if _, ok := f.LPNOf(wa1.New); ok {
		t.Error("stale page still reverse-mapped")
	}
	if f.Stats().HostWrites != 2 {
		t.Errorf("HostWrites = %d", f.Stats().HostWrites)
	}
}

func TestAllocateWriteAtRedirects(t *testing.T) {
	g := tinyGeometry()
	f := New(g)
	target := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 1, Cluster: 1}, FIMM: 1}
	wa, err := f.AllocateWriteAt(0, target) // LPN 0's home is FIMM 0
	if err != nil {
		t.Fatal(err)
	}
	if wa.New.FIMMID() != target {
		t.Errorf("redirected write on %v, want %v", wa.New.FIMMID(), target)
	}
	// Subsequent plain writes stay at the new residence.
	wa2, err := f.AllocateWrite(0)
	if err != nil {
		t.Fatal(err)
	}
	if wa2.New.FIMMID() != target {
		t.Errorf("follow-up write on %v, want %v", wa2.New.FIMMID(), target)
	}
}

func TestRelocate(t *testing.T) {
	g := tinyGeometry()
	f := New(g)
	if _, err := f.Relocate(3, f.HomeFIMM(3)); err == nil {
		t.Error("relocate of unmapped LPN accepted")
	}
	if _, _, err := f.Prepopulate(3); err != nil {
		t.Fatal(err)
	}
	target := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 1}, FIMM: 0}
	wa, err := f.Relocate(3, target)
	if err != nil {
		t.Fatal(err)
	}
	if !wa.HasOld {
		t.Error("relocation lost the source page")
	}
	if wa.New.FIMMID() != target {
		t.Errorf("relocated to %v, want %v", wa.New.FIMMID(), target)
	}
	if f.ResidentFIMM(3) != target {
		t.Errorf("ResidentFIMM = %v", f.ResidentFIMM(3))
	}
	if f.Stats().MigrationWrites != 1 {
		t.Errorf("MigrationWrites = %d", f.Stats().MigrationWrites)
	}
}

func TestDenseFallbackWhenBlockTaken(t *testing.T) {
	g := tinyGeometry()
	f := New(g)
	// Consume LPN 0's dense home block (unit 0, plane-local block 0) via
	// dynamic allocation: the first write to FIMM 0 takes that virgin
	// block. LPNs 60..63 live on FIMM 0 in this geometry.
	for i := 0; i < 4; i++ {
		if _, err := f.AllocateWrite(int64(60 + i)); err != nil {
			t.Fatal(err)
		}
	}
	// LPN 0's dense slot is unit 0, block 0 — now consumed.
	ppn, need, err := f.Prepopulate(0)
	if err != nil {
		t.Fatal(err)
	}
	if !need {
		t.Error("fallback prepopulate should still need device populate")
	}
	if got, _ := f.Lookup(0); got != ppn {
		t.Error("fallback mapping missing")
	}
	if f.Stats().HostWrites != 4 {
		t.Errorf("HostWrites = %d, want 4 (fallback not counted)", f.Stats().HostWrites)
	}
}

func TestNoSpace(t *testing.T) {
	g := tinyGeometry()
	f := New(g, WithGCThreshold(0))
	id := f.HomeFIMM(0)
	total := g.PagesPerFIMM().Int()
	n := 0
	for ; n <= total; n++ {
		if _, err := f.AllocateWriteAt(int64(n)%4, id); err != nil {
			break
		}
	}
	if n != total {
		t.Fatalf("allocated %d pages before ErrNoSpace, want %d", n, total)
	}
}

func TestGCCycle(t *testing.T) {
	g := tinyGeometry()
	f := New(g, WithGCThreshold(4)) // pressure early
	id := f.HomeFIMM(0)

	// Overwrite 4 LPNs repeatedly: lots of stale pages accumulate.
	for round := 0; round < 6; round++ {
		for lpn := int64(0); lpn < 4; lpn++ {
			if _, err := f.AllocateWriteAt(lpn, id); err != nil {
				t.Fatalf("round %d lpn %d: %v", round, lpn, err)
			}
		}
	}
	if !f.GCPressure(id) {
		t.Fatal("no GC pressure after heavy overwrites")
	}
	plan, ok := f.PlanGC(id, nil)
	if !ok {
		t.Fatal("PlanGC found no victim")
	}
	// Execute the plan: relocate moves, then erase.
	for _, m := range plan.Moves {
		wa, err := f.AllocateGCMove(m)
		if err != nil {
			t.Fatalf("AllocateGCMove: %v", err)
		}
		if wa.New.FIMMID() != id {
			t.Errorf("GC move left the FIMM: %v", wa.New)
		}
	}
	if err := f.CompleteGCErase(plan); err != nil {
		t.Fatalf("CompleteGCErase: %v", err)
	}
	if f.Stats().GCErases != 1 {
		t.Errorf("GCErases = %d", f.Stats().GCErases)
	}
	if f.Wear(id) != 1 {
		t.Errorf("Wear = %d", f.Wear(id))
	}
	if f.TotalErases() != 1 {
		t.Errorf("TotalErases = %d", f.TotalErases())
	}
}

// scanWear is the reference for Wear: a walk over every touched block
// of the FIMM, in block order, summing the per-block erase counts. It
// also reports the highest per-block count, which the test uses to
// pick the block it retires and to check that the churn is heavy
// enough.
func scanWear(f *FTL, id topo.FIMMID) (erases uint64, maxBlock int) {
	fa := f.fimms[id.Flat(&f.geom)]
	if fa == nil {
		return 0, 0
	}
	for unit := range fa.units {
		for b := 0; b < f.geom.Nand.BlocksPerPlane.Int(); b++ {
			if bi := fa.block(unit, b); bi != nil {
				erases += uint64(bi.erase)
				maxBlock = max(maxBlock, int(bi.erase))
			}
		}
	}
	return erases, maxBlock
}

// TestWearMatchesBlockScan churns GC on three FIMMs of the tiny
// geometry and, after every erase, compares Wear with the erase count
// scanWear sums. Once a block on the second FIMM has been erased twice
// it is retired, so its count stays in the scan while GC can no longer
// pick it.
func TestWearMatchesBlockScan(t *testing.T) {
	g := tinyGeometry()
	f := New(g, WithGCThreshold(4)) // every unit is under pressure once touched
	ids := []topo.FIMMID{topo.FIMMFromFlat(g, 0), topo.FIMMFromFlat(g, 3), topo.FIMMFromFlat(g, 6)}
	retired := false
	for i := 0; i < 1200; i++ {
		k := i % len(ids)
		id := ids[k]
		if plan, ok := f.PlanGC(id, nil); ok {
			for _, m := range plan.Moves {
				if _, err := f.AllocateGCMove(m); err != nil {
					t.Fatalf("AllocateGCMove: %v", err)
				}
			}
			if err := f.CompleteGCErase(plan); err != nil {
				t.Fatalf("CompleteGCErase: %v", err)
			}
			want, maxBlock := scanWear(f, id)
			if got := f.Wear(id); got != want {
				t.Fatalf("write %d: Wear(%v) = %d, block scan %d", i, id, got, want)
			}
			if !retired && k == 1 && maxBlock == 2 {
				f.RetireBlock(plan.Victim)
				retired = true
			}
		}
		// Six hot LPNs per FIMM: overwrites leave most pages stale.
		if _, err := f.AllocateWriteAt(int64(8*k+(i/len(ids))%6), id); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if !retired {
		t.Fatal("no block reached two erases, so none was retired")
	}
	for _, id := range ids {
		if _, maxBlock := scanWear(f, id); maxBlock < 4 {
			t.Errorf("FIMM %v: no block erased more than %d times, churn too light", id, maxBlock)
		}
	}
}

func TestGCVictimIsEmptiest(t *testing.T) {
	g := tinyGeometry()
	f := New(g, WithGCThreshold(4))
	id := f.HomeFIMM(0)
	// Two full rounds over 16 LPNs: round one fills each unit's first
	// block; round two overwrites everything, leaving those first blocks
	// fully stale — ideal victims with zero moves.
	for round := 0; round < 2; round++ {
		for lpn := int64(0); lpn < 16; lpn++ {
			if _, err := f.AllocateWriteAt(lpn, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	plan, ok := f.PlanGC(id, nil)
	if !ok {
		t.Fatal("no GC plan")
	}
	// The victim's move count must be the minimum across reclaimable
	// blocks; with this pattern fully-stale blocks exist.
	if len(plan.Moves) != 0 {
		t.Errorf("victim has %d valid pages, expected an empty victim", len(plan.Moves))
	}
}

// TestGCTieBreakLowestBlock fills every block of one FIMM, then leaves
// unit 0's plane-local blocks 1 and 3 with one valid page each and
// blocks 0 and 2 with three: PlanGC must pick block 1, the lowest of
// the equally empty blocks.
func TestGCTieBreakLowestBlock(t *testing.T) {
	g := tinyGeometry()
	f := New(g, WithGCThreshold(4))
	id := f.HomeFIMM(0)
	// Write i lands on unit i%4, plane-local block i/16, so unit 0's
	// blocks hold LPNs {0,4,8,12}, {16,...,28}, {32,...,44}, {48,...,60}.
	for lpn := int64(0); lpn < g.PagesPerFIMM().Int64(); lpn++ {
		if _, err := f.AllocateWriteAt(lpn, id); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := f.Lookup(16)
	for _, lpn := range []int64{0, 20, 24, 28, 32, 52, 56, 60} {
		if _, ok := f.DropMapping(lpn); !ok {
			t.Fatalf("LPN %d was not mapped", lpn)
		}
	}
	plan, ok := f.PlanGC(id, nil)
	if !ok {
		t.Fatal("no GC plan")
	}
	if plan.Victim != want.BlockKey() || len(plan.Moves) != 1 || plan.Moves[0].LPN != 16 {
		t.Errorf("victim %v with moves %+v, want %v with LPN 16", plan.Victim, plan.Moves, want.BlockKey())
	}
}

func TestCompleteGCEraseValidation(t *testing.T) {
	g := tinyGeometry()
	f := New(g, WithGCThreshold(4))
	id := f.HomeFIMM(0)
	for lpn := int64(0); lpn < 16; lpn++ {
		if _, err := f.AllocateWriteAt(lpn, id); err != nil {
			t.Fatal(err)
		}
	}
	plan, ok := f.PlanGC(id, nil)
	if !ok {
		t.Fatal("no plan")
	}
	if len(plan.Moves) == 0 {
		t.Skip("victim empty; validation path needs valid pages")
	}
	if err := f.CompleteGCErase(plan); err == nil {
		t.Error("erase with valid pages accepted")
	}
}

func TestWriteAmplification(t *testing.T) {
	var s Stats
	if s.WriteAmplification() != 0 {
		t.Error("WA of zero stats not 0")
	}
	s = Stats{HostWrites: 100, GCWrites: 20, MigrationWrites: 14}
	if got := s.WriteAmplification(); got != 1.34 {
		t.Errorf("WA = %v, want 1.34", got)
	}
	if s.TotalWrites() != 134 {
		t.Errorf("TotalWrites = %d", s.TotalWrites())
	}
}

func TestMappedPages(t *testing.T) {
	f := New(tinyGeometry())
	for lpn := int64(0); lpn < 10; lpn++ {
		if _, err := f.AllocateWrite(lpn); err != nil {
			t.Fatal(err)
		}
	}
	if f.MappedPages() != 10 {
		t.Errorf("MappedPages = %d, want 10", f.MappedPages())
	}
}

// Property: under random interleavings of prepopulate / write /
// relocate on a small LPN set, Lookup and LPNOf stay mutually
// consistent and every mapped LPN resolves.
func TestPropertyMappingConsistency(t *testing.T) {
	g := tinyGeometry()
	f := func(ops []uint16) bool {
		fl := New(g, WithGCThreshold(0))
		const lpns = 8
		for _, op := range ops {
			lpn := int64(op % lpns)
			switch (op / lpns) % 3 {
			case 0:
				if _, _, err := fl.Prepopulate(lpn); err != nil {
					return false
				}
			case 1:
				if _, err := fl.AllocateWrite(lpn); err != nil {
					return false
				}
			case 2:
				if _, ok := fl.Lookup(lpn); ok {
					target := topo.FIMMFromFlat(g, int(op)%g.TotalFIMMs())
					if _, err := fl.Relocate(lpn, target); err != nil {
						return false
					}
				}
			}
		}
		for lpn := int64(0); lpn < lpns; lpn++ {
			ppn, ok := fl.Lookup(lpn)
			if !ok {
				continue
			}
			back, ok := fl.LPNOf(ppn)
			if !ok || back != lpn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAccessorsAndIteration(t *testing.T) {
	g := tinyGeometry()
	f := New(g, WithLayout(LayoutStriped))
	if f.Layout() != LayoutStriped {
		t.Errorf("Layout = %v", f.Layout())
	}
	for lpn := int64(0); lpn < 5; lpn++ {
		if _, err := f.AllocateWrite(lpn); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[int64]bool{}
	f.ForEachMapping(func(lpn int64, ppn topo.PPN) bool {
		seen[lpn] = true
		return true
	})
	if len(seen) != 5 {
		t.Errorf("ForEachMapping visited %d, want 5", len(seen))
	}
	// Early stop.
	n := 0
	f.ForEachMapping(func(int64, topo.PPN) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestMinFreeBlocks(t *testing.T) {
	g := tinyGeometry()
	f := New(g)
	id := f.HomeFIMM(0)
	if got := f.MinFreeBlocks(id); got != g.Nand.BlocksPerPlane {
		t.Errorf("untouched MinFreeBlocks = %d, want %d", got, g.Nand.BlocksPerPlane)
	}
	// One write allocates one block on one unit.
	if _, err := f.AllocateWriteAt(0, id); err != nil {
		t.Fatal(err)
	}
	if got := f.MinFreeBlocks(id); got != g.Nand.BlocksPerPlane-1 {
		t.Errorf("MinFreeBlocks after one alloc = %d", got)
	}
}

func TestAllocateGCMoveStale(t *testing.T) {
	g := tinyGeometry()
	f := New(g, WithGCThreshold(4))
	id := f.HomeFIMM(0)
	for round := 0; round < 2; round++ {
		for lpn := int64(0); lpn < 8; lpn++ {
			if _, err := f.AllocateWriteAt(lpn, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	plan, ok := f.PlanGC(id, nil)
	if !ok {
		t.Skip("no pressure in this shape")
	}
	if len(plan.Moves) == 0 {
		t.Skip("empty victim")
	}
	// Supersede the first move with a host write: the GC move is stale.
	m := plan.Moves[0]
	if _, err := f.AllocateWrite(m.LPN); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AllocateGCMove(m); err == nil {
		t.Error("stale GC move accepted")
	}
}
