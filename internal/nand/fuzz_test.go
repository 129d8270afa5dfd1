package nand

import (
	"testing"

	"triplea/internal/radix"
	"triplea/internal/simx"
)

// fuzzParams is the package FuzzNANDOps runs on: two dies of two
// planes, 4096 blocks per plane so high blocks sit far from the low
// ones in the radix, and 70 pages per block so the packed states span
// three words with the last one partly used.
func fuzzParams() Params {
	p := DefaultParams()
	p.BlocksPerPlane = 4096
	p.PagesPerBlock = 70
	return p
}

// fuzzBlocks are the die-level blocks the selector bytes pick: the
// first and last blocks of the die, and two on each side of chunk and
// radix-group boundaries, low and high. A chunk holds one plane-local
// block of every plane.
func fuzzBlocks(p Params) []int {
	last := p.BlocksPerPlane.Int()*p.PlanesPerDie - 1
	chunk := p.PlanesPerDie
	group := radix.Fan / p.DiesPerPackage * chunk
	blocks := []int{0, 1, last - 1, last}
	for _, b := range []int{chunk, 2 * chunk, group, 2 * group, 64 * group, last + 1 - group, last + 1 - chunk} {
		blocks = append(blocks, b-2, b-1, b, b+1)
	}
	return blocks
}

// nandBlockKey names one block of the package.
type nandBlockKey struct{ die, block int }

// nandModel is the oracle FuzzNANDOps checks the package against: plain
// maps of page states, program pointers and erase counts, and the
// package's operation counters.
type nandModel struct {
	pages  map[Addr]PageState // programmed pages; absent means erased
	next   map[nandBlockKey]int
	erases map[nandBlockKey]int
	stats  Stats
}

func (m *nandModel) state(a Addr) PageState { return m.pages[a] }

func (m *nandModel) erase(p Params, a Addr) {
	k := nandBlockKey{a.Die, a.Block}
	for page := 0; page < p.PagesPerBlock.Int(); page++ {
		delete(m.pages, Addr{a.Die, a.Plane, a.Block, page})
	}
	m.next[k] = 0
	m.erases[k]++
	m.stats.Erases++
}

// check compares a's block, the wear and the counters with the model.
func (m *nandModel) check(t *testing.T, pk *Package, p Params, a Addr, step int) {
	t.Helper()
	for page := 0; page < p.PagesPerBlock.Int(); page++ {
		pa := Addr{a.Die, a.Plane, a.Block, page}
		if got, want := pk.PageStateAt(pa), m.state(pa); got != want {
			t.Fatalf("step %d: PageStateAt(%v) = %v, model %v", step, pa, got, want)
		}
	}
	if got, want := pk.EraseCount(a), m.erases[nandBlockKey{a.Die, a.Block}]; got != want {
		t.Fatalf("step %d: EraseCount(%v) = %d, model %d", step, a, got, want)
	}
	want := m.stats
	for _, n := range m.erases {
		want.MaxEraseWear = max(want.MaxEraseWear, n)
	}
	got := pk.Stats()
	got.BusyNS, got.CacheHits, got.MultiPlane = 0, 0, 0
	if got != want {
		t.Fatalf("step %d: Stats() = %+v, model %+v", step, got, want)
	}
}

// chunks counts the package's allocated block-state chunks.
func chunks(pk *Package) int {
	n := 0
	for _, c := range pk.blocks.All() {
		if *c != nil {
			n++
		}
	}
	return n
}

// FuzzNANDOps decodes its input into single-page ProgramOp, ReadOp,
// EraseOp, MarkStale, ForcePopulate and ForceErase calls on one
// package, runs the engine to completion after each, and checks each
// call's error and the block it touched against nandModel. Each
// operation takes four bytes: the opcode, a die, a block selector and
// a page; an odd page byte on a program aims at the block's next page,
// so programs succeed often enough to fill blocks. A failing MarkStale
// or ReadOp must allocate no block state.
func FuzzNANDOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0}) // program, read, stale, read, erase, read
	f.Add([]byte{3, 1, 3, 5, 1, 1, 3, 5, 4, 1, 3, 9, 0, 1, 3, 1, 3, 1, 3, 9, 5, 1, 3, 0}) // stale/read of a virgin high block, populate, program, stale, force-erase
	fill := make([]byte, 0, 4*fuzzMaxNANDOps)
	for i := 0; i < fuzzMaxNANDOps; i++ {
		// Fill and recycle blocks on both sides of each boundary, with
		// reads, stale-marks and the odd out-of-order program between.
		op := byte(0)
		switch {
		case i%71 == 70:
			op = 2
		case i%7 == 3:
			op = 1
		case i%11 == 5:
			op = 3
		case i%13 == 6:
			op = 4
		}
		fill = append(fill, op, byte(i/3), byte(i/90), byte(2*i+1))
	}
	f.Add(fill)
	mixed := make([]byte, 4*fuzzMaxNANDOps)
	for i := range mixed {
		mixed[i] = byte(i*37 + i/5)
	}
	f.Add(mixed)
	p := fuzzParams()
	blocks := fuzzBlocks(p)
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := simx.NewEngine()
		pk := NewPackage(eng, p)
		m := &nandModel{pages: map[Addr]PageState{}, next: map[nandBlockKey]int{}, erases: map[nandBlockKey]int{}}
		for step := 0; step < fuzzMaxNANDOps && 4*step+3 < len(data); step++ {
			op, db, bb, pb := data[4*step], data[4*step+1], data[4*step+2], data[4*step+3]
			block := blocks[int(bb)%len(blocks)]
			a := Addr{Die: int(db) % p.DiesPerPackage, Plane: block % p.PlanesPerDie, Block: block, Page: int(pb) % p.PagesPerBlock.Int()}
			k := nandBlockKey{a.Die, a.Block}
			var err error
			done := 0
			d := doneFunc(func(_ simx.Time, e error) { err = e; done++ })
			before := chunks(pk)
			switch op % 6 {
			case 0:
				if pb%2 == 1 {
					a.Page = min(m.next[k], p.PagesPerBlock.Int()-1)
				}
				ok := m.state(a) == PageErased && a.Page == m.next[k]
				pk.ProgramOp([]Addr{a}, d)
				eng.Run()
				if done != 1 || (err == nil) != ok {
					t.Fatalf("step %d: ProgramOp(%v) done %d times, err %v; model accepts %t", step, a, done, err, ok)
				}
				if ok {
					m.pages[a] = PageValid
					m.next[k] = a.Page + 1
					m.stats.Programs++
				}
			case 1:
				ok := m.state(a) != PageErased
				pk.ReadOp([]Addr{a}, d)
				eng.Run()
				if done != 1 || (err == nil) != ok {
					t.Fatalf("step %d: ReadOp(%v) done %d times, err %v; model accepts %t", step, a, done, err, ok)
				}
				if ok {
					m.stats.Reads++
				} else if chunks(pk) != before {
					t.Fatalf("step %d: failing ReadOp(%v) allocated block state", step, a)
				}
			case 2:
				pk.EraseOp([]Addr{a}, d)
				eng.Run()
				if done != 1 || err != nil {
					t.Fatalf("step %d: EraseOp(%v) done %d times, err %v", step, a, done, err)
				}
				m.erase(p, a)
			case 3:
				ok := m.state(a) == PageValid
				err = pk.MarkStale(a)
				if (err == nil) != ok {
					t.Fatalf("step %d: MarkStale(%v) err %v; model accepts %t", step, a, err, ok)
				}
				if ok {
					m.pages[a] = PageStale
				} else if chunks(pk) != before {
					t.Fatalf("step %d: failing MarkStale(%v) allocated block state", step, a)
				}
			case 4:
				ok := m.state(a) == PageErased
				if err := pk.ForcePopulate(a); (err == nil) != ok {
					t.Fatalf("step %d: ForcePopulate(%v) err %v; model accepts %t", step, a, err, ok)
				}
				if ok {
					m.pages[a] = PageValid
					m.next[k] = max(m.next[k], a.Page+1)
				}
			case 5:
				if err := pk.ForceErase(a); err != nil {
					t.Fatalf("step %d: ForceErase(%v): %v", step, a, err)
				}
				m.erase(p, a)
			}
			m.check(t, pk, p, a, step)
		}
		for k := range m.next {
			m.check(t, pk, p, Addr{Die: k.die, Plane: k.block % p.PlanesPerDie, Block: k.block}, -1)
		}
	})
}

// fuzzMaxNANDOps caps the operations one FuzzNANDOps input decodes to.
const fuzzMaxNANDOps = 400
