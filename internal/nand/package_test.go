package nand

import (
	"strings"
	"testing"
	"testing/quick"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// doneFunc adapts a closure to Done for these tests; read, program and
// erase issue an operation completing into one.
type doneFunc func(texe simx.Time, err error)

func (f doneFunc) OnNandDone(texe simx.Time, err error) { f(texe, err) }

func read(pk *Package, addrs []Addr, done doneFunc)    { pk.ReadOp(addrs, done) }
func program(pk *Package, addrs []Addr, done doneFunc) { pk.ProgramOp(addrs, done) }
func erase(pk *Package, addrs []Addr, done doneFunc)   { pk.EraseOp(addrs, done) }

func testParams() Params {
	p := DefaultParams()
	p.BlocksPerPlane = 8
	p.PagesPerBlock = 4
	return p
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
}

func TestParamsValidation(t *testing.T) {
	mods := []struct {
		name string
		mod  func(*Params)
	}{
		{"page size", func(p *Params) { p.PageSizeBytes = 0 }},
		{"pages per block", func(p *Params) { p.PagesPerBlock = -1 }},
		{"blocks", func(p *Params) { p.BlocksPerPlane = 0 }},
		{"planes", func(p *Params) { p.PlanesPerDie = 0 }},
		{"dies", func(p *Params) { p.DiesPerPackage = 0 }},
		{"tread", func(p *Params) { p.TRead = 0 }},
		{"cmd overhead", func(p *Params) { p.TCmdOverhead = -1 }},
		{"ecc", func(p *Params) { p.TECCPerPage = -1 }},
	}
	for _, m := range mods {
		p := DefaultParams()
		m.mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted bad %s", m.name)
		}
	}
}

func TestCapacityMath(t *testing.T) {
	p := DefaultParams()
	// 4096 B * 256 pages * 2048 blocks * 2 planes * 2 dies = 8 GiB
	want := units.Bytes(4096) * 256 * 2048 * 2 * 2
	if got := p.BytesPerPackage(); got != want {
		t.Errorf("BytesPerPackage = %d, want %d", got, want)
	}
}

func TestReadErasedPageFails(t *testing.T) {
	eng := simx.NewEngine()
	pk := NewPackage(eng, testParams())
	var gotErr error
	read(pk, []Addr{{}}, func(_ simx.Time, err error) { gotErr = err })
	eng.Run()
	if gotErr == nil || !strings.Contains(gotErr.Error(), "erased") {
		t.Fatalf("read of erased page: err = %v, want erased-page error", gotErr)
	}
}

func TestProgramThenRead(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	pk := NewPackage(eng, p)
	a := Addr{Die: 0, Plane: 0, Block: 0, Page: 0}

	var progTime, readTime simx.Time
	program(pk, []Addr{a}, func(texe simx.Time, err error) {
		if err != nil {
			t.Errorf("program: %v", err)
		}
		progTime = texe
		read(pk, []Addr{a}, func(texe simx.Time, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			readTime = texe
		})
	})
	eng.Run()

	wantProg := p.TCmdOverhead + p.TProg + p.TECCPerPage
	if progTime != wantProg {
		t.Errorf("program texe = %v, want %v", progTime, wantProg)
	}
	// First read after program: cache register was invalidated by the
	// program, so full tR applies... but the program left the cacheTag
	// cleared, then the read sets it. The read itself pays tR.
	wantRead := p.TCmdOverhead + p.TRead + p.TECCPerPage
	if readTime != wantRead {
		t.Errorf("read texe = %v, want %v", wantRead, readTime)
	}
	if pk.PageStateAt(a) != PageValid {
		t.Errorf("page state = %v, want PageValid", pk.PageStateAt(a))
	}
}

func TestCacheModeRead(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	pk := NewPackage(eng, p)
	a := Addr{}
	var second simx.Time
	program(pk, []Addr{a}, func(_ simx.Time, err error) {
		read(pk, []Addr{a}, func(_ simx.Time, err error) {
			read(pk, []Addr{a}, func(texe simx.Time, err error) { second = texe })
		})
	})
	eng.Run()
	if second != p.TCmdOverhead {
		t.Errorf("cached re-read texe = %v, want cmd overhead %v", second, p.TCmdOverhead)
	}
	if pk.Stats().CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", pk.Stats().CacheHits)
	}
}

func TestEraseBeforeWriteEnforced(t *testing.T) {
	eng := simx.NewEngine()
	pk := NewPackage(eng, testParams())
	a := Addr{}
	var rewriteErr error
	program(pk, []Addr{a}, func(_ simx.Time, err error) {
		program(pk, []Addr{a}, func(_ simx.Time, err error) { rewriteErr = err })
	})
	eng.Run()
	if rewriteErr == nil {
		t.Fatal("overwrite without erase succeeded")
	}
}

func TestSequentialProgramEnforced(t *testing.T) {
	eng := simx.NewEngine()
	pk := NewPackage(eng, testParams())
	var err2 error
	// Page 2 before pages 0,1 violates sequential programming.
	program(pk, []Addr{{Page: 2}}, func(_ simx.Time, err error) { err2 = err })
	eng.Run()
	if err2 == nil || !strings.Contains(err2.Error(), "out-of-order") {
		t.Fatalf("out-of-order program err = %v", err2)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	eng := simx.NewEngine()
	pk := NewPackage(eng, testParams())
	a := Addr{}
	program(pk, []Addr{a}, func(_ simx.Time, err error) {
		erase(pk, []Addr{a}, func(_ simx.Time, err error) {
			if err != nil {
				t.Errorf("erase: %v", err)
			}
			// Reprogramming page 0 must now succeed.
			program(pk, []Addr{a}, func(_ simx.Time, err error) {
				if err != nil {
					t.Errorf("program after erase: %v", err)
				}
			})
		})
	})
	eng.Run()
	if pk.EraseCount(a) != 1 {
		t.Errorf("EraseCount = %d, want 1", pk.EraseCount(a))
	}
	if pk.Stats().Erases != 1 || pk.Stats().Programs != 2 {
		t.Errorf("stats = %+v", pk.Stats())
	}
}

func TestDieInterleavingParallelism(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	pk := NewPackage(eng, p)
	var done0, done1 simx.Time
	program(pk, []Addr{{Die: 0}}, func(_ simx.Time, err error) { done0 = eng.Now() })
	program(pk, []Addr{{Die: 1}}, func(_ simx.Time, err error) { done1 = eng.Now() })
	eng.Run()
	if done0 != done1 {
		t.Errorf("independent dies finished at %v and %v, want concurrent", done0, done1)
	}
}

func TestSameDieSerializes(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	pk := NewPackage(eng, p)
	var done0, done1 simx.Time
	program(pk, []Addr{{Page: 0}}, func(_ simx.Time, err error) { done0 = eng.Now() })
	program(pk, []Addr{{Page: 1}}, func(_ simx.Time, err error) { done1 = eng.Now() })
	eng.Run()
	unit := p.TCmdOverhead + p.TProg + p.TECCPerPage
	if done0 != unit || done1 != 2*unit {
		t.Errorf("serialized programs finished at %v, %v; want %v, %v", done0, done1, unit, 2*unit)
	}
}

func TestMultiPlaneProgram(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	pk := NewPackage(eng, p)
	// Plane 0 must use even blocks, plane 1 odd blocks.
	addrs := []Addr{{Plane: 0, Block: 0}, {Plane: 1, Block: 1}}
	var end simx.Time
	program(pk, addrs, func(_ simx.Time, err error) {
		if err != nil {
			t.Errorf("multi-plane program: %v", err)
		}
		end = eng.Now()
	})
	eng.Run()
	unit := p.TCmdOverhead + p.TProg + p.TECCPerPage
	if end != unit {
		t.Errorf("multi-plane took %v, want single op time %v", end, unit)
	}
	if pk.Stats().Programs != 2 || pk.Stats().MultiPlane != 1 {
		t.Errorf("stats = %+v", pk.Stats())
	}
}

func TestMultiPlaneValidation(t *testing.T) {
	eng := simx.NewEngine()
	pk := NewPackage(eng, testParams())
	cases := []struct {
		name  string
		addrs []Addr
	}{
		{"cross-die", []Addr{{Die: 0}, {Die: 1, Plane: 1, Block: 1}}},
		{"same plane twice", []Addr{{Plane: 0, Block: 0}, {Plane: 0, Block: 2}}},
		{"page offsets differ", []Addr{{Plane: 0, Block: 0, Page: 0}, {Plane: 1, Block: 1, Page: 1}}},
		{"parity violation", []Addr{{Plane: 0, Block: 1}, {Plane: 1, Block: 0}}},
	}
	for _, c := range cases {
		var got error
		program(pk, c.addrs, func(_ simx.Time, err error) { got = err })
		eng.Run()
		if got == nil {
			t.Errorf("%s: multi-plane accepted", c.name)
		}
	}
}

func TestMarkStale(t *testing.T) {
	eng := simx.NewEngine()
	pk := NewPackage(eng, testParams())
	a := Addr{}
	program(pk, []Addr{a}, func(_ simx.Time, err error) {})
	eng.Run()
	if err := pk.MarkStale(a); err != nil {
		t.Fatalf("MarkStale: %v", err)
	}
	if pk.PageStateAt(a) != PageStale {
		t.Errorf("state = %v, want PageStale", pk.PageStateAt(a))
	}
	if err := pk.MarkStale(a); err == nil {
		t.Error("MarkStale of stale page succeeded")
	}
	// A failing stale-mark of a never-touched block leaves it untouched:
	// no block state, no chunk.
	virgin := Addr{Die: 1, Plane: 1, Block: 7}
	n := chunks(pk)
	if err := pk.MarkStale(virgin); err == nil {
		t.Error("MarkStale of a never-programmed page succeeded")
	}
	if pk.touched(virgin) != nil || chunks(pk) != n {
		t.Error("failing MarkStale created block state")
	}
}

func TestAddrValidation(t *testing.T) {
	eng := simx.NewEngine()
	pk := NewPackage(eng, testParams())
	bad := []Addr{
		{Die: 99}, {Plane: 99}, {Block: 99}, {Page: 99},
		{Die: -1}, {Plane: -1}, {Block: -1}, {Page: -1},
		{Plane: 0, Block: 1}, // odd block addresses plane 1, not 0
		{Plane: 1, Block: 2}, // even block addresses plane 0, not 1
	}
	for _, a := range bad {
		var got error
		read(pk, []Addr{a}, func(_ simx.Time, err error) { got = err })
		eng.Run()
		if got == nil {
			t.Errorf("addr %v accepted", a)
		}
		// The state queries panic rather than read another block's
		// chunk: the chunk index alone would alias an out-of-range die.
		if !panics(func() { pk.PageStateAt(a) }) || !panics(func() { pk.EraseCount(a) }) {
			t.Errorf("state query of addr %v did not panic", a)
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

func TestBusyReflectsDieOccupancy(t *testing.T) {
	eng := simx.NewEngine()
	pk := NewPackage(eng, testParams())
	program(pk, []Addr{{}}, func(_ simx.Time, err error) {})
	if !pk.Busy() || !pk.DieBusy(0) || pk.DieBusy(1) {
		t.Error("busy flags wrong during program")
	}
	eng.Run()
	if pk.Busy() {
		t.Error("package busy after all ops completed")
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpProgram.String() != "program" ||
		OpErase.String() != "erase" || Op(9).String() != "unknown" {
		t.Error("Op.String mismatch")
	}
	if got := (Addr{1, 1, 3, 2}).String(); got != "d1/p1/b3/pg2" {
		t.Errorf("Addr.String = %q", got)
	}
}

// Property: any sequence of (erase block, program next page) pairs keeps
// the invariant: valid+stale page count == programs since last erase,
// and nextPage never exceeds PagesPerBlock.
func TestPropertyProgramEraseCycles(t *testing.T) {
	f := func(ops []bool) bool {
		eng := simx.NewEngine()
		p := testParams()
		pk := NewPackage(eng, p)
		next := 0
		for _, doErase := range ops {
			if doErase || next >= p.PagesPerBlock.Int() {
				erase(pk, []Addr{{}}, func(_ simx.Time, err error) {
					if err != nil {
						t.Fatalf("erase: %v", err)
					}
				})
				next = 0
			} else {
				a := Addr{Page: next}
				program(pk, []Addr{a}, func(_ simx.Time, err error) {
					if err != nil {
						t.Fatalf("program: %v", err)
					}
				})
				next++
			}
			eng.Run()
			// Count programmed pages in block 0.
			got := 0
			for pg := 0; pg < p.PagesPerBlock.Int(); pg++ {
				if pk.PageStateAt(Addr{Page: pg}) != PageErased {
					got++
				}
			}
			if got != next {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestForcePopulateAndErase(t *testing.T) {
	eng := simx.NewEngine()
	pk := NewPackage(eng, testParams())
	a := Addr{Page: 2}
	if err := pk.ForcePopulate(a); err != nil {
		t.Fatal(err)
	}
	if pk.PageStateAt(a) != PageValid {
		t.Error("populated page not valid")
	}
	if err := pk.ForcePopulate(a); err == nil {
		t.Error("double populate accepted")
	}
	if err := pk.ForcePopulate(Addr{Die: 99}); err == nil {
		t.Error("bad addr accepted")
	}
	// Sequential pointer advanced past page 2: programming page 0 must fail.
	var progErr error
	program(pk, []Addr{{Page: 0}}, func(_ simx.Time, err error) { progErr = err })
	eng.Run()
	if progErr == nil {
		t.Error("out-of-order program after ForcePopulate accepted")
	}
	// ForceErase resets and counts wear.
	if err := pk.ForceErase(a); err != nil {
		t.Fatal(err)
	}
	if pk.PageStateAt(a) != PageErased || pk.EraseCount(a) != 1 {
		t.Error("ForceErase did not reset the block")
	}
	if err := pk.ForceErase(Addr{Block: -1}); err == nil {
		t.Error("bad erase addr accepted")
	}
	if pk.Params().PageSizeBytes != testParams().PageSizeBytes {
		t.Error("Params accessor mismatch")
	}
}

// TestPageStatesPacked walks a 70-page block, whose packed states span
// three words with the last one partly used, through every state
// change the package makes, and checks that each write moves exactly
// its own page: ForcePopulate, MarkStale and PageStateAt address one
// page's 2-bit field, and ForceErase clears them all.
func TestPageStatesPacked(t *testing.T) {
	p := testParams()
	p.PagesPerBlock = 70
	pk := NewPackage(simx.NewEngine(), p)
	want := make([]PageState, p.PagesPerBlock)
	addr := func(page int) Addr { return Addr{Die: 0, Plane: 1, Block: 3, Page: page} }
	check := func(step string) {
		t.Helper()
		for page, w := range want {
			if got := pk.PageStateAt(addr(page)); got != w {
				t.Fatalf("%s: page %d is %v, want %v", step, page, got, w)
			}
		}
	}
	check("untouched")
	// Programs in order, each followed by a stale-mark of every third
	// page, so neighbouring fields on both sides of each word boundary
	// hold different states.
	for page := range want {
		if err := pk.ForcePopulate(addr(page)); err != nil {
			t.Fatal(err)
		}
		want[page] = PageValid
		check("populate")
		if page%3 == 1 {
			if err := pk.MarkStale(addr(page)); err != nil {
				t.Fatal(err)
			}
			want[page] = PageStale
			check("stale")
		}
	}
	if err := pk.ForceErase(addr(0)); err != nil {
		t.Fatal(err)
	}
	clear(want)
	check("erase")
	if got := pk.EraseCount(addr(0)); got != 1 {
		t.Errorf("EraseCount = %d, want 1", got)
	}
}
