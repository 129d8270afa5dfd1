// Package array assembles the complete all-flash array: root complex,
// PCI-E switches, cluster endpoints, FIMMs and the global FTL, and
// drives I/O requests end to end. Without a manager attached this is
// the paper's *non-autonomic* baseline; package core adds the autonomic
// contention management on top through the hook points exposed here.
package array

import (
	"fmt"

	"triplea/internal/cluster"
	"triplea/internal/decision"
	"triplea/internal/fimm"
	"triplea/internal/ftl"
	"triplea/internal/metrics"
	"triplea/internal/nand"
	"triplea/internal/pcie"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/units"
)

// Config describes a full array build.
type Config struct {
	Geometry topo.Geometry

	// Metrics selects the recorder backend: metrics.Exact (the zero
	// value — every sample retained, byte-identical historical output)
	// or metrics.Streaming (O(1) metric state for production-scale
	// runs). See docs/metrics.md.
	Metrics metrics.Backend

	// Decisions selects the autonomic decision flight-recorder backend:
	// decision.Off (the zero value — no recorder is built and every
	// recording hook is one nil check) or decision.Ring (a bounded ring
	// of decision records plus streaming regret aggregates). See
	// docs/decision-traces.md.
	Decisions decision.Backend

	// Endpoint parameters not implied by the geometry.
	BusPins         units.Lanes
	BusMHz          int
	BusDDR          bool
	QueueEntries    int
	FIMMQueueDepth  int
	WriteBufEntries int
	StagingEntries  int
	HALLatency      simx.Time
	// HostPriority queues host reads ahead of background (GC/migration)
	// reads at the endpoints.
	HostPriority bool

	// FIMM channel parameters.
	ChannelPins units.Lanes
	ChannelMHz  int
	ChannelDDR  bool

	// Fabric parameters.
	EPLinkBytesPerSec     units.BytesPerSec // switch <-> endpoint links
	SwitchLinkBytesPerSec units.BytesPerSec // RC <-> switch links
	LinkPropagation       simx.Time         // per hop
	SwitchRouteLatency    simx.Time
	RCRouteLatency        simx.Time
	EPLinkCredits         int
	SwitchLinkCredits     int

	RCQueueEntries int       // outstanding page commands (paper: 650-1000)
	SLA            simx.Time // latency target for laggard detection (paper: 3.3us)

	// HostDRAMBytes sizes the relocated DRAM at the management module
	// (Section 6.6); zero disables host caching. Triple-A moves the
	// SSDs' on-board DRAM here — caching still works, but, as the paper
	// argues, it cannot resolve the array's link/storage contentions.
	HostDRAMBytes units.Bytes

	Layout      ftl.Layout
	GCThreshold units.Blocks
	// OpportunisticGC defers background garbage collection while the
	// target cluster's shared bus is busy, running it in idle windows
	// instead (the paper's Section 8 "array-level garbage collection
	// scheduler"). Urgent pressure (a unit nearly out of free blocks)
	// collects regardless.
	OpportunisticGC bool

	// DegradedFIMMs slows individual modules' cell timings by the given
	// factor (wear-degraded hardware — intrinsic laggards). Healthy
	// modules are simply absent from the map, or have a factor of at
	// most 1; see cluster.CheckLatencyScale for the factors Validate
	// rejects.
	DegradedFIMMs map[topo.FIMMID]float64
}

// DefaultConfig returns the paper's baseline: a 4x16 network (four PLX
// switches, sixteen clusters each) of 4 x 64 GiB-FIMM clusters — a
// 16 TB array — with PCI-E 3.0-era link rates (x4 endpoint links, x16
// switch uplinks) and the published RC queue size and SLA.
//
// The cluster's shared local bus runs ONFI SDR x8 (400 MB/s, ~10.2 us
// per 4 KiB page): slower than the per-FIMM NV-DDR2 channels behind it,
// making the bus the cluster's shared bottleneck — the link-contention
// point Equation 1 reasons about.
func DefaultConfig() Config {
	return Config{
		Geometry: topo.Geometry{
			Switches:          4,
			ClustersPerSwitch: 16,
			FIMMsPerCluster:   4,
			PackagesPerFIMM:   8,
			Nand:              nand.DefaultParams(),
		},
		BusPins:         8 * units.Lane,
		BusMHz:          400,
		BusDDR:          false,
		QueueEntries:    64,
		FIMMQueueDepth:  4,
		WriteBufEntries: 64,
		StagingEntries:  32,
		HALLatency:      200 * simx.Nanosecond,

		ChannelPins: 16 * units.Lane,
		ChannelMHz:  400,
		ChannelDDR:  true,

		EPLinkBytesPerSec:     pcie.Gen3Bandwidth(4 * units.Lane),  // PCI-E 3.0 x4
		SwitchLinkBytesPerSec: pcie.Gen3Bandwidth(16 * units.Lane), // PCI-E 3.0 x16
		LinkPropagation:       100 * simx.Nanosecond,
		SwitchRouteLatency:    150 * simx.Nanosecond,
		RCRouteLatency:        200 * simx.Nanosecond,
		EPLinkCredits:         32,
		SwitchLinkCredits:     64,

		RCQueueEntries: 768,
		SLA:            3300 * simx.Nanosecond,

		Layout:      ftl.LayoutClustered,
		GCThreshold: 2 * units.Block,
	}
}

// Validate reports whether the configuration is buildable.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	switch {
	case c.EPLinkBytesPerSec <= 0 || c.SwitchLinkBytesPerSec <= 0:
		return fmt.Errorf("array: link bandwidths must be positive")
	case c.EPLinkCredits < 1 || c.SwitchLinkCredits < 1:
		return fmt.Errorf("array: link credits must be >= 1")
	case c.RCQueueEntries < 1:
		return fmt.Errorf("array: RCQueueEntries %d must be >= 1", c.RCQueueEntries)
	case c.SLA <= 0:
		return fmt.Errorf("array: SLA %v must be positive", c.SLA)
	case c.LinkPropagation < 0 || c.SwitchRouteLatency < 0 || c.RCRouteLatency < 0:
		return fmt.Errorf("array: fabric latencies must not be negative")
	}
	for i := 0; i < c.Geometry.TotalFIMMs(); i++ {
		id := topo.FIMMFromFlat(c.Geometry, i)
		if err := cluster.CheckLatencyScale(c.Geometry.Nand, c.DegradedFIMMs[id]); err != nil {
			return fmt.Errorf("array: DegradedFIMMs[%v]: %w", id, err)
		}
	}
	return c.clusterParams().Validate()
}

// clusterParamsFor derives one cluster's parameters, applying any
// per-slot degradation.
func (c Config) clusterParamsFor(id topo.ClusterID) cluster.Params {
	p := c.clusterParams()
	for slot := 0; slot < c.Geometry.FIMMsPerCluster; slot++ {
		f, ok := c.DegradedFIMMs[topo.FIMMID{ClusterID: id, FIMM: slot}]
		if !ok {
			continue
		}
		if p.SlotLatencyScale == nil {
			p.SlotLatencyScale = make([]float64, c.Geometry.FIMMsPerCluster)
			for i := range p.SlotLatencyScale {
				p.SlotLatencyScale[i] = 1
			}
		}
		p.SlotLatencyScale[slot] = f
	}
	return p
}

// clusterParams derives the per-cluster parameters from the config.
func (c Config) clusterParams() cluster.Params {
	return cluster.Params{
		NumFIMMs: c.Geometry.FIMMsPerCluster,
		FIMM: fimm.Params{
			NumPackages: c.Geometry.PackagesPerFIMM,
			ChannelPins: c.ChannelPins,
			ChannelMHz:  c.ChannelMHz,
			ChannelDDR:  c.ChannelDDR,
			Nand:        c.Geometry.Nand,
		},
		BusPins:         c.BusPins,
		BusMHz:          c.BusMHz,
		BusDDR:          c.BusDDR,
		QueueEntries:    c.QueueEntries,
		FIMMQueueDepth:  c.FIMMQueueDepth,
		WriteBufEntries: c.WriteBufEntries,
		StagingEntries:  c.StagingEntries,
		HALLatency:      c.HALLatency,
		HostPriority:    c.HostPriority,
	}
}

// BusPageTime reports the cluster shared-bus time for one page — the
// tDMA term of the paper's Equations 1-3, which the autonomic manager
// needs for its detection thresholds.
func (c Config) BusPageTime() simx.Time { return c.clusterParams().BusPageTime() }

// ChannelPageTime reports a FIMM channel's time for one page, the time a
// channel-degrade fault scales.
func (c Config) ChannelPageTime() simx.Time { return c.clusterParams().FIMM.PageTransferTime() }
