package units_test

import (
	"math"
	"testing"

	"triplea/internal/simx"
	"triplea/internal/units"
)

func TestUnitConstants(t *testing.T) {
	if units.KiB != 1024 || units.MiB != 1024*1024 || units.GiB != 1024*1024*1024 {
		t.Fatalf("binary byte units wrong: KiB=%d MiB=%d GiB=%d", units.KiB, units.MiB, units.GiB)
	}
	if units.KBps != 1_000 || units.MBps != 1_000_000 || units.GBps != 1_000_000_000 {
		t.Fatalf("decimal rate units wrong: KBps=%d MBps=%d GBps=%d", units.KBps, units.MBps, units.GBps)
	}
}

func TestPagesBytesRoundTrip(t *testing.T) {
	const pageSize = 4 * units.KiB
	for _, n := range []units.Pages{0, 1, 3, 256, 1 << 20} {
		b := units.PagesToBytes(n, pageSize)
		if got := units.BytesToPages(b, pageSize); got != n {
			t.Errorf("BytesToPages(PagesToBytes(%d)) = %d", n, got)
		}
	}
	// A partial page floors down.
	b := units.PagesToBytes(3, pageSize) + 1*units.Byte
	if got := units.BytesToPages(b, pageSize); got != 3 {
		t.Errorf("BytesToPages(3 pages + 1 byte) = %d, want 3", got)
	}
}

func TestBlocksToPages(t *testing.T) {
	if got := units.BlocksToPages(2048*units.Block, 256*units.Page); got != 524288 {
		t.Fatalf("BlocksToPages(2048, 256) = %d, want 524288", got)
	}
}

func TestLaneBandwidth(t *testing.T) {
	// PCI-E 3.0: ~1 GB/s per lane after 128b/130b encoding.
	perLane := 1 * units.GBps
	if got := units.LaneBandwidth(perLane, 4*units.Lane); got != 4*units.GBps {
		t.Fatalf("x4 link = %d B/s, want 4e9", got)
	}
	if got := units.LaneBandwidth(perLane, 16*units.Lane); got != 16*units.GBps {
		t.Fatalf("x16 link = %d B/s, want 16e9", got)
	}
}

func TestBusBandwidth(t *testing.T) {
	// ONFI NV-DDR2 x8 at 400 MHz DDR: 800 MT/s x 1 byte = 800 MB/s.
	if got := units.BusBandwidth(8*units.Lane, 400, true); got != 800*units.MBps {
		t.Fatalf("x8 DDR 400MHz = %d, want 800 MB/s", got)
	}
	// SDR x8 at 400 MHz: 400 MB/s.
	if got := units.BusBandwidth(8*units.Lane, 400, false); got != 400*units.MBps {
		t.Fatalf("x8 SDR 400MHz = %d, want 400 MB/s", got)
	}
	// x16 doubles the byte rate.
	if got := units.BusBandwidth(16*units.Lane, 400, true); got != 1600*units.MBps {
		t.Fatalf("x16 DDR 400MHz = %d, want 1600 MB/s", got)
	}
}

func TestTransferTime(t *testing.T) {
	// 4 KiB over an 800 MB/s ONFI channel: 4096e9/800e6 = 5120 ns exactly.
	if got := units.TransferTime(4*units.KiB, 800*units.MBps); got != 5120*simx.Nanosecond {
		t.Fatalf("4KiB @ 800MB/s = %v, want 5.12us", got)
	}
	// Non-divisible sizes round up, never down: 1 byte at 3 B/s is
	// ceil(1e9/3) = 333333334 ns.
	if got := units.TransferTime(1*units.Byte, 3*units.BytePerSec); got != 333333334 {
		t.Fatalf("1B @ 3B/s = %d, want 333333334", got)
	}
	if got := units.TransferTime(0, 800*units.MBps); got != 0 {
		t.Fatalf("0 bytes should take 0 time, got %v", got)
	}
	if got := units.TransferTime(-5*units.Byte, 800*units.MBps); got != 0 {
		t.Fatalf("negative size should take 0 time, got %v", got)
	}
}

func TestTransferTimeOverflowEdge(t *testing.T) {
	// The naive int64 ceil formula (n*1e9+bps-1)/bps overflows past
	// ~9.2 GB; the 128-bit path stays exact. 16 GiB at 1 GB/s is
	// 17179869184 ns with exact rounding.
	got := units.TransferTime(16*units.GiB, 1*units.GBps)
	if want := simx.Time(17_179_869_184); got != want {
		t.Fatalf("TransferTime(16GiB @ 1GB/s) = %d, want %d", got, want)
	}
	// An array-lifetime-scale transfer saturates instead of wrapping
	// negative: MaxInt64 bytes at 1 B/s needs MaxInt64*1e9 ns.
	if got := units.TransferTime(units.Bytes(math.MaxInt64), 1*units.BytePerSec); got != math.MaxInt64 {
		t.Fatalf("huge transfer should saturate at MaxInt64, got %d", got)
	}
	// Rate faster than a byte per ns still rounds up to 1 ns minimum.
	if got := units.TransferTime(1*units.Byte, 16*units.GBps); got != 1 {
		t.Fatalf("sub-ns transfer should round up to 1ns, got %d", got)
	}
}

func TestScaleByPages(t *testing.T) {
	per := 10240 * simx.Nanosecond
	if got := units.ScaleByPages(per, 3*units.Page); got != 30720*simx.Nanosecond {
		t.Fatalf("3 pages at 10.24us = %v, want 30.72us", got)
	}
	if got := units.ScaleByPages(per, 0); got != 0 {
		t.Fatalf("0 pages = %v, want 0", got)
	}
}

func TestAccessors(t *testing.T) {
	if (4*units.KiB).Int64() != 4096 || (4*units.KiB).Int() != 4096 {
		t.Fatal("Bytes accessors")
	}
	if (256*units.Page).Int64() != 256 || (256*units.Page).Int() != 256 {
		t.Fatal("Pages accessors")
	}
	if (7 * units.Block).Int() != 7 {
		t.Fatal("Blocks accessor")
	}
	if (8 * units.Lane).Int() != 8 {
		t.Fatal("Lanes accessor")
	}
	if (800 * units.MBps).Int64() != 800_000_000 {
		t.Fatal("BytesPerSec accessor")
	}
}
