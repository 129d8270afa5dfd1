// Package units defines distinct named scalar types for the physical
// quantities the simulator mixes constantly — bytes, flash pages, flash
// blocks, interface lanes, and bandwidth — alongside simx.Time
// (nanoseconds) and topo.PPN (physical page addresses) defined in their
// own packages.
//
// The point of the types is that Go refuses to mix them implicitly: a
// page count cannot be added to a byte count, and a bandwidth cannot be
// passed where a size is expected, without an explicit conversion. The
// simlint `units` analyzer then polices the remaining escape hatches:
// conversions between two unit types must go through the named helpers
// below (PagesToBytes, TransferTime, ...), conversions that erase a
// unit must go through the Int/Int64 accessors, and bare numeric
// literals may not pose as unit-typed values outside audited sites —
// write 4*units.KiB, not units.Bytes(4096).
//
// The zero value of every type is zero of its quantity, and 0 / -1 stay
// legal as literal sentinels everywhere, mirroring the simx.Time
// convention.
package units

import (
	"math"
	"math/bits"

	"triplea/internal/simx"
)

// Bytes is a size or capacity in bytes.
type Bytes int64

// Pages is a count of flash pages.
type Pages int64

// Blocks is a count of flash erase blocks.
type Blocks int

// Lanes counts parallel data lines of an interface: PCI Express lanes,
// or the data pins of an ONFI channel / cluster bus (x8, x16).
type Lanes int

// BytesPerSec is a data rate in bytes per second.
type BytesPerSec int64

// Unit constants, so quantities are written with their unit attached:
// 4*units.KiB, 256*units.Page, 2*units.Block, 8*units.Lane, 400*units.MBps.
const (
	Byte Bytes = 1
	KiB        = 1024 * Byte
	MiB        = 1024 * KiB
	GiB        = 1024 * MiB

	Page Pages = 1

	Block Blocks = 1

	Lane Lanes = 1

	// Bandwidth units are decimal, matching datasheet convention
	// (an x8 ONFI channel at 400 MT/s moves 400 MB/s, not 400 MiB/s).
	BytePerSec BytesPerSec = 1
	KBps                   = 1000 * BytePerSec
	MBps                   = 1000 * KBps
	GBps                   = 1000 * MBps
)

// Int64 erases the unit. Prefer keeping the typed value; this is the
// audited escape hatch for fmt verbs, stdlib calls, and index math.
func (b Bytes) Int64() int64 { return int64(b) }

// Int erases the unit to int.
func (b Bytes) Int() int { return int(b) }

// Int64 erases the unit.
func (n Pages) Int64() int64 { return int64(n) }

// Int erases the unit to int.
func (n Pages) Int() int { return int(n) }

// Int erases the unit.
func (n Blocks) Int() int { return int(n) }

// Int erases the unit.
func (n Lanes) Int() int { return int(n) }

// Int64 erases the unit.
func (r BytesPerSec) Int64() int64 { return int64(r) }

// PagesToBytes reports the size of n pages of pageSize bytes each.
func PagesToBytes(n Pages, pageSize Bytes) Bytes {
	return Bytes(int64(n) * int64(pageSize))
}

// BytesToPages reports how many whole pages of pageSize bytes fit in b
// (floor). pageSize must be positive.
func BytesToPages(b Bytes, pageSize Bytes) Pages {
	return Pages(int64(b) / int64(pageSize))
}

// BlocksToPages reports the page count of n blocks of pagesPerBlock
// pages each.
func BlocksToPages(n Blocks, pagesPerBlock Pages) Pages {
	return Pages(int64(n) * int64(pagesPerBlock))
}

// LaneBandwidth reports the aggregate rate of n lanes running at
// perLane each.
func LaneBandwidth(perLane BytesPerSec, n Lanes) BytesPerSec {
	return BytesPerSec(int64(perLane) * int64(n))
}

// BusBandwidth reports the data rate of a parallel bus: pins data
// lines clocked at mhz, double-pumped when ddr. An x8 bus moves one
// byte per transfer, an x16 bus two.
func BusBandwidth(pins Lanes, mhz int, ddr bool) BytesPerSec {
	mt := int64(mhz) * 1_000_000 // transfers per second
	if ddr {
		mt *= 2
	}
	return BytesPerSec(mt * int64(pins) / 8)
}

// TransferTime reports how long moving n bytes takes at rate bw,
// rounded up to whole simulated nanoseconds. It is the Eq. 1-3 transfer
// term shared by the ONFI channel, the cluster bus, and the PCI-E link
// models. A non-positive n costs nothing; bw must be positive. The
// intermediate n*1e9 is carried at 128 bits, so the result is exact for
// every size, saturating at the maximum representable instant.
func TransferTime(n Bytes, bw BytesPerSec) simx.Time {
	if n <= 0 {
		return 0
	}
	bps := uint64(bw)
	hi, lo := bits.Mul64(uint64(n), 1_000_000_000)
	var carry uint64
	lo, carry = bits.Add64(lo, bps-1, 0) // round up
	hi += carry
	if hi >= bps {
		return simx.Time(math.MaxInt64) // quotient exceeds 64 bits
	}
	q, _ := bits.Div64(hi, lo, bps)
	if q > math.MaxInt64 {
		return simx.Time(math.MaxInt64)
	}
	return simx.Time(q)
}

// ScaleByPages reports per×n: a per-page duration scaled by a page
// count. It exists so page counts do not get converted to simx.Time to
// make the multiplication compile.
func ScaleByPages(per simx.Time, n Pages) simx.Time {
	return per * simx.Time(n)
}
