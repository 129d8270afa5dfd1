package nand

import (
	"errors"
	"fmt"
)

// Fault-injection hooks (see internal/fault and docs/fault-injection.md).
// A healthy package keeps every map nil and the scale zero, so the
// unfaulted hot path pays one nil comparison per state check.

// ErrBadBlock marks an operation that hit a block retired by fault
// injection (read-fail or wear-out). Callers detect it with errors.Is.
var ErrBadBlock = errors.New("nand: bad block")

// ErrDeadDie marks an operation that addressed a die killed by fault
// injection.
var ErrDeadDie = errors.New("nand: dead die")

// FailBlock makes every future operation on the addressed block fail
// with ErrBadBlock — the block-level read-fail fault. In-flight
// operations already granted their die are unaffected.
func (pk *Package) FailBlock(a Addr) {
	if err := pk.checkAddr(a); err != nil {
		panic(err)
	}
	if pk.badBlocks == nil {
		pk.badBlocks = make(map[int]bool)
	}
	pk.badBlocks[pk.flatBlock(a)] = true
}

// WearOutBlock makes future programs and erases of the addressed block
// fail with ErrBadBlock while reads of already-programmed pages keep
// succeeding — the end-of-life wear-out fault.
func (pk *Package) WearOutBlock(a Addr) {
	if err := pk.checkAddr(a); err != nil {
		panic(err)
	}
	if pk.wornBlocks == nil {
		pk.wornBlocks = make(map[int]bool)
	}
	pk.wornBlocks[pk.flatBlock(a)] = true
}

// FailDie makes every future operation on the die fail with ErrDeadDie.
func (pk *Package) FailDie(dieIdx int) {
	if dieIdx < 0 || dieIdx >= pk.params.DiesPerPackage {
		panic(fmt.Sprintf("nand: FailDie %d out of range [0,%d)", dieIdx, pk.params.DiesPerPackage))
	}
	if pk.deadDies == nil {
		pk.deadDies = make(map[int]bool)
	}
	pk.deadDies[dieIdx] = true
}

// SetTimingScale multiplies every cell operation's execution time by s
// (>1 models a stalled or throttled package). Zero restores nominal
// timing.
func (pk *Package) SetTimingScale(s float64) { pk.timeScale = s }

// checkFaults runs at die-grant time alongside the state machine, so
// queued operations observe faults injected while they waited.
func (pk *Package) checkFaults(op Op, addrs []Addr) error {
	for _, a := range addrs {
		if pk.deadDies[a.Die] {
			return fmt.Errorf("nand: %v %v: %w", op, a, ErrDeadDie)
		}
		flat := pk.flatBlock(a)
		if pk.badBlocks[flat] {
			return fmt.Errorf("nand: %v %v: %w", op, a, ErrBadBlock)
		}
		if op != OpRead && pk.wornBlocks[flat] {
			return fmt.Errorf("nand: %v %v: worn out: %w", op, a, ErrBadBlock)
		}
	}
	return nil
}
