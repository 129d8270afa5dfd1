package array

import (
	"math"
	"testing"

	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/units"
)

// packGeometry packs FuzzConfig's six geometry dimensions, each 0 to
// 3, two bits apiece from the low end: switches, clusters per switch,
// FIMMs per cluster, packages per FIMM, dies per package, planes per die.
func packGeometry(dims ...int) uint16 {
	var g uint16
	for i, d := range dims {
		g |= uint16(d&3) << (2 * i)
	}
	return g
}

// FuzzConfig maps small integers onto an array configuration: each
// geometry dimension 0 to 3, 0 to 31 blocks per plane and 0 to 79 pages
// per block, fabric and HAL latencies and NAND overheads in signed
// nanoseconds, link credits, queue sizes, host DRAM in signed pages, and
// the degradation factor of FIMM (0,0,0).
// The checks: a config Validate rejects makes New fail too, and a config
// it accepts builds and runs a read of LPN 0, a second read of it (a
// cache-register hit on the die) and a read of the last LPN without an
// error or a panic. The run reads only: a write on a one-block geometry
// runs the FTL out of space.
func FuzzConfig(f *testing.F) {
	tiny := packGeometry(1, 1, 1, 1, 1, 2)
	// DefaultConfig's latencies and queues on a 1x1x1x1 array.
	f.Add(tiny, uint8(8), uint8(4), int16(200), int16(100), int16(150), int16(200),
		int8(32), int8(64), int8(64), int8(4), int8(16), int16(300), int16(2000), int8(0), 1.0)
	// Negative latencies: Validate must reject each one, or the run
	// panics with "simx: negative delay".
	f.Add(tiny, uint8(8), uint8(4), int16(-70), int16(100), int16(150), int16(200),
		int8(32), int8(64), int8(64), int8(4), int8(16), int16(300), int16(2000), int8(0), 1.0)
	f.Add(packGeometry(2, 2, 2, 2, 2, 2), uint8(2), uint8(1), int16(200), int16(-1), int16(-150), int16(-200),
		int8(1), int8(1), int8(1), int8(1), int8(1), int16(300), int16(2000), int8(2), 1.0)
	f.Add(tiny, uint8(8), uint8(4), int16(200), int16(100), int16(150), int16(200),
		int8(32), int8(64), int8(64), int8(4), int8(16), int16(-300), int16(-2000), int8(0), 1.0)
	// Degradation factors Validate must reject, or New panics with
	// "nand: cell timings must be positive".
	for _, slow := range []float64{math.NaN(), math.Inf(1), 1e300} {
		f.Add(tiny, uint8(8), uint8(4), int16(200), int16(100), int16(150), int16(200),
			int8(32), int8(64), int8(64), int8(4), int8(16), int16(300), int16(2000), int8(0), slow)
	}
	f.Fuzz(func(t *testing.T, geom uint16, blocks, pages uint8, hal, prop, swRoute, rcRoute int16,
		credits, queue, buf, depth, rcq int8, tcmd, tecc int16, dram int8, slow float64) {
		dim := func(i int) int { return int(geom >> (2 * i) & 3) }
		cfg := DefaultConfig()
		g := &cfg.Geometry
		g.Switches, g.ClustersPerSwitch, g.FIMMsPerCluster, g.PackagesPerFIMM = dim(0), dim(1), dim(2), dim(3)
		g.Nand.DiesPerPackage, g.Nand.PlanesPerDie = dim(4), dim(5)
		g.Nand.BlocksPerPlane = units.Blocks(blocks % 32)
		g.Nand.PagesPerBlock = units.Pages(pages % 80)
		g.Nand.TCmdOverhead = simx.Time(tcmd)
		g.Nand.TECCPerPage = simx.Time(tecc)
		cfg.HALLatency = simx.Time(hal)
		cfg.LinkPropagation = simx.Time(prop)
		cfg.SwitchRouteLatency = simx.Time(swRoute)
		cfg.RCRouteLatency = simx.Time(rcRoute)
		cfg.EPLinkCredits, cfg.SwitchLinkCredits = int(credits), int(credits)
		cfg.QueueEntries, cfg.StagingEntries = int(queue), int(queue)
		cfg.WriteBufEntries = int(buf)
		cfg.FIMMQueueDepth = int(depth)
		cfg.RCQueueEntries = int(rcq)
		cfg.HostDRAMBytes = units.PagesToBytes(units.Pages(dram), g.Nand.PageSizeBytes)
		cfg.DegradedFIMMs = map[topo.FIMMID]float64{{}: slow}

		a, err := New(cfg)
		if verr := cfg.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("Validate rejected the config (%v) but New accepted it", verr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Validate accepted the config but New failed: %v", err)
		}
		last := g.TotalPages().Int64() - 1
		if _, err := a.Run([]trace.Request{
			{Op: trace.Read, LPN: 0, Pages: units.Page},
			{Op: trace.Read, LPN: 0, Pages: units.Page},
			{Op: trace.Read, LPN: last, Pages: units.Page},
		}); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
}
