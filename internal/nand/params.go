// Package nand models a bare NAND flash package: the multi-die,
// multi-plane memory array, its cache/data registers, the embedded
// controller with its ECC engine, and the ONFI command set (read,
// program, erase, die-interleave, multi-plane, cache mode). This is the
// "passive memory device" Triple-A mounts on FIMMs after unboxing SSDs.
//
// The model enforces real NAND constraints — erase-before-write,
// sequential page programming inside a block, even/odd plane pairing for
// multi-plane commands — and accounts wear (per-block erase counts), so
// the FTL and the autonomic manager above it are exercised against
// genuine flash behaviour rather than a byte store.
package nand

import (
	"fmt"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// Params describes the geometry and timing of one flash package.
type Params struct {
	// Geometry.
	PageSizeBytes  units.Bytes  // main-area bytes per page (typically 4 KiB)
	PagesPerBlock  units.Pages  // pages per erase block
	BlocksPerPlane units.Blocks // erase blocks per plane
	PlanesPerDie   int          // planes per die (even/odd block addressing)
	DiesPerPackage int          // independently operating dies

	// Cell timing.
	TRead  simx.Time // tR: array -> data register
	TProg  simx.Time // tPROG: data register -> array
	TErase simx.Time // tBERS: block erase

	// Embedded controller.
	TCmdOverhead simx.Time // command decode/protocol handling per op
	TECCPerPage  simx.Time // ECC encode/decode per page

	CacheOK bool // cache-mode commands supported
}

// DefaultParams returns the 2013-era MLC package used throughout the
// paper-scale experiments: 4 KB pages (the PCI-E 3.0 maximum payload the
// workloads issue), 2 dies x 2 planes. The package's I/O interface is
// timed at the FIMM channel (fimm.Params), not here.
func DefaultParams() Params {
	return Params{
		PageSizeBytes:  4 * units.KiB,
		PagesPerBlock:  256 * units.Page,
		BlocksPerPlane: 2048 * units.Block,
		PlanesPerDie:   2,
		DiesPerPackage: 2,
		TRead:          50 * simx.Microsecond,
		TProg:          600 * simx.Microsecond,
		TErase:         3 * simx.Millisecond,
		TCmdOverhead:   300 * simx.Nanosecond,
		TECCPerPage:    2 * simx.Microsecond,
		CacheOK:        true,
	}
}

// Validate reports whether the parameters describe a usable package.
func (p Params) Validate() error {
	switch {
	case p.PageSizeBytes <= 0:
		return fmt.Errorf("nand: PageSizeBytes %d must be positive", p.PageSizeBytes)
	case p.PagesPerBlock <= 0:
		return fmt.Errorf("nand: PagesPerBlock %d must be positive", p.PagesPerBlock)
	case p.BlocksPerPlane <= 0:
		return fmt.Errorf("nand: BlocksPerPlane %d must be positive", p.BlocksPerPlane)
	case p.PlanesPerDie <= 0:
		return fmt.Errorf("nand: PlanesPerDie %d must be positive", p.PlanesPerDie)
	case p.DiesPerPackage <= 0:
		return fmt.Errorf("nand: DiesPerPackage %d must be positive", p.DiesPerPackage)
	case p.TRead <= 0 || p.TProg <= 0 || p.TErase <= 0:
		return fmt.Errorf("nand: cell timings must be positive")
	case p.TCmdOverhead < 0:
		return fmt.Errorf("nand: TCmdOverhead %v must not be negative", p.TCmdOverhead)
	case p.TECCPerPage < 0:
		return fmt.Errorf("nand: TECCPerPage %v must not be negative", p.TECCPerPage)
	}
	return nil
}

// PagesPerPackage reports the total page count of one package.
func (p Params) PagesPerPackage() units.Pages {
	return units.BlocksToPages(p.BlocksPerPlane, p.PagesPerBlock) *
		units.Pages(p.PlanesPerDie) * units.Pages(p.DiesPerPackage)
}

// BytesPerPackage reports the package capacity in bytes.
func (p Params) BytesPerPackage() units.Bytes {
	return units.PagesToBytes(p.PagesPerPackage(), p.PageSizeBytes)
}

// NominalTime reports the queue-free cell time of op: the embedded
// controller's command overhead, the array access, and the ECC pass of
// the data-carrying ops. A cache-register hit is faster (Package charges
// it the command overhead alone).
func (p *Params) NominalTime(op Op) simx.Time {
	switch op {
	case OpRead:
		return p.TCmdOverhead + p.TRead + p.TECCPerPage
	case OpProgram:
		return p.TCmdOverhead + p.TProg + p.TECCPerPage
	case OpErase:
		return p.TCmdOverhead + p.TErase
	}
	panic("nand: unknown op")
}
