package ftl

import (
	"errors"
	"slices"
	"testing"

	"triplea/internal/radix"
	"triplea/internal/topo"
)

// fuzzMaxOps caps the operations one input decodes to.
const fuzzMaxOps = 400

// fuzzLPNs is how many logical pages a fuzz run on the tiny geometry
// touches, few enough that the byte alphabet repeats them often enough
// for overwrites and GC.
const fuzzLPNs = 64

// fuzzGeometry is one array FuzzFTLOps runs every input on, with the
// LPNs its selector bytes pick.
type fuzzGeometry struct {
	name string
	g    topo.Geometry
	lpns []int64
}

// fuzzGeometries are the tiny geometry, its 512 pages strided so every
// FIMM holds some LPNs and GC runs often, and wideGeometry, whose LPNs
// hug the page table's node boundaries (the first two and last two
// pages, and two on each side of 15 leaf, inner-node and root-slot
// boundaries) and the block-record chunks: LPNs whose dense homes lie
// on the first and the last block of a chunk, for every unit, in the
// first chunk row, on both sides of a radix group boundary and in the
// last row.
func fuzzGeometries() []fuzzGeometry {
	tiny := tinyGeometry()
	stride := tiny.TotalPages().Int64() / fuzzLPNs
	var strided []int64
	for i := int64(0); i < fuzzLPNs; i++ {
		strided = append(strided, i*stride)
	}
	wide := wideGeometry()
	total := wide.TotalPages().Int64()
	const leaf, inner, root = radixFan, 1 << (2 * radixBits), 1 << rootShift
	edges := []int64{0, 1, total - 2, total - 1}
	for _, b := range []int64{
		leaf, 2 * leaf, inner - leaf, inner, inner + leaf, 2 * inner,
		root / 2, root - inner, root - leaf, root, root + leaf, root + inner,
		total - inner, total - 2*leaf, total - leaf,
	} {
		edges = append(edges, b-2, b-1, b, b+1)
	}
	units := wide.ParallelUnitsPerFIMM()
	ppb := wide.Nand.PagesPerBlock.Int()
	rowsPerGroup := radix.Fan / units
	for _, row := range []int{0, rowsPerGroup - 1, rowsPerGroup, wide.Nand.BlocksPerPlane.Int()/recChunkBlocks - 1} {
		first, last := row*recChunkBlocks, (row+1)*recChunkBlocks-1
		for u := 0; u < units; u++ {
			// FIMM 0's dense page index (block*ppb + page)*units + unit
			// is its LPN under the clustered layout.
			edges = append(edges,
				int64((first*ppb+ppb-1)*units+u),
				int64(last*ppb*units+u))
		}
	}
	return []fuzzGeometry{{"tiny", tiny, strided}, {"wide", wide, edges}}
}

// ftlModel is the oracle FuzzFTLOps checks the FTL against: a plain
// map of the current translations and every physical page the FTL has
// handed out. A seen page that no LPN maps to is stale, and LPNOf must
// not find an LPN there.
type ftlModel struct {
	g       topo.Geometry
	lpns    []int64 // the LPNs selector bytes pick
	plan    GCPlan  // refilled by every round, as the array's GC workers do
	mapped  map[int64]topo.PPN
	seen    []topo.PPN        // in first-allocation order
	known   map[topo.PPN]bool // the pages in seen
	retired map[topo.PPN]bool // block keys retired by the run
}

func (m *ftlModel) lpn(b byte) int64 { return m.lpns[int(b)%len(m.lpns)] }

func (m *ftlModel) fimm(b byte) topo.FIMMID {
	return topo.FIMMFromFlat(m.g, int(b)%m.g.TotalFIMMs())
}

// owners inverts the model's translations.
func (m *ftlModel) owners() map[topo.PPN]int64 {
	owners := make(map[topo.PPN]int64, len(m.mapped))
	for _, lpn := range m.lpns {
		if ppn, ok := m.mapped[lpn]; ok {
			owners[ppn] = lpn
		}
	}
	return owners
}

// wrote mirrors a successful allocation for lpn: the old page must be
// the model's mapping, and the new page must be free.
func (m *ftlModel) wrote(t *testing.T, what string, lpn int64, wa WriteAlloc) {
	t.Helper()
	old, had := m.mapped[lpn]
	if wa.LPN != lpn || wa.HasOld != had || (had && wa.Old != old) {
		t.Fatalf("%s(%d) = %+v; model mapping %v (%t)", what, lpn, wa, old, had)
	}
	if other, taken := m.owners()[wa.New]; taken {
		t.Fatalf("%s(%d) allocated %v, which LPN %d still maps to", what, lpn, wa.New, other)
	}
	m.mapped[lpn] = wa.New
	if !m.known[wa.New] {
		m.known[wa.New] = true
		m.seen = append(m.seen, wa.New)
	}
}

// inBlock lists, in page order, the LPNs the model maps into block bk.
func (m *ftlModel) inBlock(bk topo.PPN) []int64 {
	owners := m.owners()
	var ppns []topo.PPN
	for ppn := range owners {
		if ppn.BlockKey() == bk {
			ppns = append(ppns, ppn)
		}
	}
	slices.Sort(ppns)
	lpns := make([]int64, len(ppns))
	for i, ppn := range ppns {
		lpns[i] = owners[ppn]
	}
	return lpns
}

// check compares every query the FTL answers with the model.
func (m *ftlModel) check(t *testing.T, f *FTL, step int) {
	t.Helper()
	for _, lpn := range m.lpns {
		want, mapped := m.mapped[lpn]
		got, ok := f.Lookup(lpn)
		if ok != mapped || got != want {
			t.Fatalf("step %d: Lookup(%d) = %v,%t; model %v,%t", step, lpn, got, ok, want, mapped)
		}
	}
	owners := m.owners()
	for _, ppn := range m.seen {
		want, mapped := owners[ppn]
		got, ok := f.LPNOf(ppn)
		if ok != mapped || got != want {
			t.Fatalf("step %d: LPNOf(%v) = %d,%t; model %d,%t", step, ppn, got, ok, want, mapped)
		}
	}
	if f.MappedPages() != len(m.mapped) {
		t.Fatalf("step %d: MappedPages = %d; model %d", step, f.MappedPages(), len(m.mapped))
	}
	if err := f.VerifyBijective(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// gcRound runs one collection round on id, mirroring each call. With
// race set, a host write supersedes the first move between planning
// and relocation, so that move must come back stale.
func (m *ftlModel) gcRound(t *testing.T, f *FTL, id topo.FIMMID, race bool) {
	t.Helper()
	plan := &m.plan
	if !f.PlanGCInto(plan, id, nil) {
		return
	}
	var planned []int64
	for _, mv := range plan.Moves {
		if m.mapped[mv.LPN] != mv.Src {
			t.Fatalf("PlanGC move %+v: model maps LPN %d to %v", mv, mv.LPN, m.mapped[mv.LPN])
		}
		planned = append(planned, mv.LPN)
	}
	if want := m.inBlock(plan.Victim.BlockKey()); !slices.Equal(planned, want) {
		t.Fatalf("PlanGC victim %v moves LPNs %v; model holds %v there", plan.Victim, planned, want)
	}
	if m.retired[plan.Victim.BlockKey()] {
		t.Fatalf("PlanGC picked retired block %v", plan.Victim)
	}
	moves := plan.Moves
	if race && len(moves) > 0 {
		lpn := moves[0].LPN
		wa, err := f.AllocateWrite(lpn)
		if err != nil {
			return // no room for the racing write; the victim stays full
		}
		m.wrote(t, "racing AllocateWrite", lpn, wa)
		if _, err := f.AllocateGCMove(moves[0]); err == nil {
			t.Fatalf("AllocateGCMove accepted superseded move %+v", moves[0])
		}
		moves = moves[1:]
	}
	for _, mv := range moves {
		wa, err := f.AllocateGCMove(mv)
		if err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("AllocateGCMove(%+v): %v", mv, err)
			}
			return // the victim keeps valid pages; it is not erased
		}
		m.wrote(t, "AllocateGCMove", mv.LPN, wa)
	}
	if err := f.CompleteGCErase(plan); err != nil {
		t.Fatalf("CompleteGCErase(%v): %v", plan.Victim, err)
	}
}

// FuzzFTLOps decodes its input into a sequence of FTL calls, runs it on
// each of fuzzGeometries, and checks each call, and the whole
// translation state after it, against ftlModel. Each operation takes
// three bytes: the opcode, an LPN selector and a FIMM or block
// selector.
func FuzzFTLOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 0})                            // overwrite one LPN
	f.Add([]byte{3, 5, 0, 3, 6, 0, 2, 5, 3, 0, 6, 0, 5, 6, 0, 3, 6, 0}) // prepopulate, relocate, write, drop, re-prepopulate
	churn := make([]byte, 0, 3*fuzzMaxOps)
	for i := 0; i < fuzzMaxOps; i++ {
		// Overwrites of eight LPNs aimed at one FIMM, with a GC round
		// (every third one racing a host write) and an occasional
		// retirement.
		op := byte(1)
		switch {
		case i%5 == 4:
			op = 4
		case i%37 == 36:
			op = 6
		}
		churn = append(churn, op, byte(i%8), byte(i/5))
	}
	f.Add(churn)
	mixed := make([]byte, 3*fuzzMaxOps)
	for i := range mixed {
		mixed[i] = byte(i*131 + i/3)
	}
	f.Add(mixed)
	geoms := fuzzGeometries()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fg := range geoms {
			t.Run(fg.name, func(t *testing.T) { fuzzFTLOps(t, fg, data) })
		}
	})
}

// fuzzFTLOps runs one FuzzFTLOps input on one geometry.
func fuzzFTLOps(t *testing.T, fg fuzzGeometry, data []byte) {
	g := fg.g
	fl := New(g, WithGCThreshold(g.Nand.BlocksPerPlane)) // every touched unit wants GC
	m := &ftlModel{g: g, lpns: fg.lpns, mapped: map[int64]topo.PPN{}, known: map[topo.PPN]bool{}, retired: map[topo.PPN]bool{}}
	for step := 0; step < fuzzMaxOps && 3*step+2 < len(data); step++ {
		op, a, b := data[3*step], data[3*step+1], data[3*step+2]
		lpn, id := m.lpn(a), m.fimm(b)
		switch op % 7 {
		case 0:
			if wa, err := fl.AllocateWrite(lpn); err == nil {
				m.wrote(t, "AllocateWrite", lpn, wa)
			} else if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("AllocateWrite(%d): %v", lpn, err)
			}
		case 1:
			if wa, err := fl.AllocateWriteAt(lpn, id); err == nil {
				m.wrote(t, "AllocateWriteAt", lpn, wa)
			} else if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("AllocateWriteAt(%d, %v): %v", lpn, id, err)
			}
		case 2:
			_, mapped := m.mapped[lpn]
			wa, err := fl.Relocate(lpn, id)
			switch {
			case err == nil && !mapped:
				t.Fatalf("Relocate of unmapped LPN %d succeeded", lpn)
			case err == nil:
				m.wrote(t, "Relocate", lpn, wa)
			case mapped && !errors.Is(err, ErrNoSpace):
				t.Fatalf("Relocate(%d, %v): %v", lpn, id, err)
			}
		case 3:
			old, mapped := m.mapped[lpn]
			ppn, need, err := fl.Prepopulate(lpn)
			switch {
			case err != nil:
				if mapped || !errors.Is(err, ErrNoSpace) {
					t.Fatalf("Prepopulate(%d): %v", lpn, err)
				}
			case mapped && (need || ppn != old):
				t.Fatalf("Prepopulate of mapped LPN %d = %v,%t; model %v", lpn, ppn, need, old)
			case !mapped:
				m.wrote(t, "Prepopulate", lpn, WriteAlloc{LPN: lpn, New: ppn})
			}
		case 4:
			m.gcRound(t, fl, id, b%3 == 0)
		case 5:
			old, mapped := m.mapped[lpn]
			if ppn, ok := fl.DropMapping(lpn); ok != mapped || ppn != old {
				t.Fatalf("DropMapping(%d) = %v,%t; model %v,%t", lpn, ppn, ok, old, mapped)
			}
			delete(m.mapped, lpn)
		case 6:
			// A mapped LPN's block, or a block picked by the selector.
			ppn, ok := m.mapped[lpn]
			if !ok || b%2 == 0 {
				blocks := g.Nand.BlocksPerPlane.Int() * g.Nand.PlanesPerDie
				ppn = topo.PackPPN(id.Switch, id.Cluster, id.FIMM, int(b/8)%g.PackagesPerFIMM, 0, int(b/16)%blocks, 0)
			}
			bk := ppn.BlockKey()
			fl.RetireBlock(bk)
			m.retired[bk] = true
			if b%4 < 2 {
				// Drop the block's data, as the fault injector does.
				lpns := fl.BlockLPNs(bk)
				if want := m.inBlock(bk); !slices.Equal(lpns, want) {
					t.Fatalf("BlockLPNs(%v) = %v; model %v", bk, lpns, want)
				}
				for _, l := range lpns {
					fl.DropMapping(l)
					delete(m.mapped, l)
				}
			}
		}
		m.check(t, fl, step)
	}
}
