// Package fault implements deterministic fault injection and hot-swap
// for the simulated array: a Plan of scripted and seeded-randomly drawn
// hardware fault events (NAND block/die failures and wear-out, FIMM
// stalls and deaths, channel and PCI-E link degradation, link retrains,
// cluster hot-unplug and replug) delivered as first-class simulation
// events through the injection hooks in nand, fimm, cluster, pcie and
// the array.
//
// Everything is inside the determinism contract: random events are
// drawn up front from the plan's own seeded PRNG, scheduled times are
// fixed before the run starts, and recovery work (mapping drops,
// evacuation migrations) flows through the same deterministic machinery
// host traffic uses. The same seed and plan produce byte-identical
// runs — see docs/fault-injection.md.
package fault

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"triplea/internal/array"
	"triplea/internal/cluster"
	"triplea/internal/pcie"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/units"
)

// Kind identifies one injectable hardware fault.
type Kind uint8

const (
	// KindFIMMStall multiplies a FIMM's flash cell times by Factor — a
	// module whose dies degraded into slow retry-heavy reads.
	KindFIMMStall Kind = iota
	// KindFIMMDeath kills a FIMM module: every new operation fails,
	// in-flight ones drain. Its resident pages are lost (recovery
	// remaps them out-of-place from host shadow clones).
	KindFIMMDeath
	// KindBlockReadFail makes one erase block unreadable (grown defect).
	KindBlockReadFail
	// KindBlockWearOut wears one erase block out: reads still succeed,
	// programs and erases fail.
	KindBlockWearOut
	// KindDieReadFail kills one NAND die.
	KindDieReadFail
	// KindChannelDegrade multiplies a FIMM's ONFI channel transfer time
	// by Factor (a lane dropped to a slower timing mode).
	KindChannelDegrade
	// KindLinkDegrade multiplies a cluster's PCI-E link serialisation
	// time by Factor (link trained down after errors).
	KindLinkDegrade
	// KindLinkRetrain blocks a cluster's PCI-E link for Duration (an
	// LTSSM Recovery excursion); traffic queues, nothing is dropped.
	KindLinkRetrain
	// KindClusterUnplug hot-removes a cluster. Without recovery it goes
	// offline at once and its I/O fails; with recovery it degrades,
	// its live data evacuates, and only then is it released.
	KindClusterUnplug
	// KindClusterReplug re-inserts a previously unplugged cluster; it
	// rejoins cold (no data) unless it was never evacuated.
	KindClusterReplug
)

func (k Kind) String() string {
	switch k {
	case KindFIMMStall:
		return "fimm-stall"
	case KindFIMMDeath:
		return "fimm-death"
	case KindBlockReadFail:
		return "block-read-fail"
	case KindBlockWearOut:
		return "block-wear-out"
	case KindDieReadFail:
		return "die-read-fail"
	case KindChannelDegrade:
		return "channel-degrade"
	case KindLinkDegrade:
		return "link-degrade"
	case KindLinkRetrain:
		return "link-retrain"
	case KindClusterUnplug:
		return "cluster-unplug"
	case KindClusterReplug:
		return "cluster-replug"
	}
	return "unknown"
}

// Event is one scheduled fault. Cluster (and FIMM, for module-scoped
// kinds) selects the target; block- and die-scoped kinds carry their
// full coordinates in Block, a page-0 PPN.
type Event struct {
	At       simx.Time
	Kind     Kind
	Cluster  topo.ClusterID
	FIMM     int       // module slot within Cluster
	Block    topo.PPN  // page-0 PPN: package/die/block coordinates
	Factor   float64   // time scale for stall/degrade kinds (0 = nominal)
	Duration simx.Time // retrain window length
}

// RandomSpec asks Materialize to draw Count additional events from the
// plan's PRNG, uniformly timed in [Start, End) with kinds from Kinds.
type RandomSpec struct {
	Count int
	Start simx.Time
	End   simx.Time
	Kinds []Kind // defaults to the transient kinds when empty
}

// defaultRandomKinds are the kinds safe to draw blindly: they degrade
// service without permanently removing capacity.
var defaultRandomKinds = []Kind{
	KindFIMMStall, KindChannelDegrade, KindLinkDegrade,
	KindLinkRetrain, KindBlockReadFail,
}

// Plan is a reproducible fault schedule: scripted events plus an
// optional randomly drawn tail, both fixed before the run starts.
type Plan struct {
	Seed   uint64
	Events []Event
	Random RandomSpec
}

// Materialize resolves the plan against a geometry: scripted events are
// copied, random ones drawn from the plan's seeded PRNG, and the result
// is sorted into a total deterministic order.
func (p Plan) Materialize(g topo.Geometry) []Event {
	out := make([]Event, len(p.Events))
	copy(out, p.Events)

	if n := p.Random.Count; n > 0 {
		rng := simx.NewRNG(p.Seed)
		kinds := p.Random.Kinds
		if len(kinds) == 0 {
			kinds = defaultRandomKinds
		}
		span := p.Random.End - p.Random.Start
		if span < simx.Nanosecond {
			span = simx.Nanosecond
		}
		for i := 0; i < n; i++ {
			cl := topo.ClusterFromFlat(g, rng.Intn(g.TotalClusters()))
			slot := rng.Intn(g.FIMMsPerCluster)
			pkg := rng.Intn(g.PackagesPerFIMM)
			die := rng.Intn(g.Nand.DiesPerPackage)
			block := rng.Intn(g.Nand.BlocksPerPlane.Int() * g.Nand.PlanesPerDie)
			ev := Event{
				At:      p.Random.Start + simx.Time(rng.Int63n(int64(span))),
				Kind:    kinds[rng.Intn(len(kinds))],
				Cluster: cl,
				FIMM:    slot,
				Block:   topo.PackPPN(cl.Switch, cl.Cluster, slot, pkg, die, block, 0),
			}
			switch ev.Kind {
			case KindFIMMStall:
				ev.Factor = 2 + 2*rng.Float64()
			case KindChannelDegrade, KindLinkDegrade:
				ev.Factor = 1.5 + rng.Float64()
			case KindLinkRetrain:
				ev.Duration = simx.Time(20+rng.Intn(80)) * simx.Microsecond
			case KindFIMMDeath, KindBlockReadFail, KindBlockWearOut,
				KindDieReadFail, KindClusterUnplug, KindClusterReplug:
				// Coordinates alone describe these.
			}
			out = append(out, ev)
		}
	}

	// Total order: time, then kind, then target — map-free and stable,
	// so two materializations of the same plan are identical.
	slices.SortStableFunc(out, func(a, b Event) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Cluster.Flat(&g), b.Cluster.Flat(&g)); c != 0 {
			return c
		}
		if c := cmp.Compare(a.FIMM, b.FIMM); c != 0 {
			return c
		}
		return cmp.Compare(a.Block, b.Block)
	})
	return out
}

// Validate reports the first event of the materialized plan that an
// array built from cfg cannot take: a negative time or Duration, or a
// Duration that ends past the range of simx.Time; a Factor that is
// NaN, infinite or negative, or that scales its time past that range
// (cell times for a FIMM stall, one page's transfer for a channel or
// link degrade); an unknown kind; a cluster, FIMM or block outside the
// geometry; or a block- or die-scoped event whose Block is not a page-0
// PPN.
func (p Plan) Validate(cfg array.Config) error {
	for _, ev := range p.Materialize(cfg.Geometry) {
		if err := ev.check(cfg); err != nil {
			return fmt.Errorf("fault: event %v: %w", ev, err)
		}
	}
	return nil
}

// check applies Validate's rules to one event.
func (ev Event) check(cfg array.Config) error {
	g := cfg.Geometry
	switch {
	case ev.At < 0:
		return errors.New("negative time")
	case ev.Duration < 0:
		return fmt.Errorf("negative duration %v", ev.Duration)
	case ev.Duration > math.MaxInt64-ev.At:
		return fmt.Errorf("duration %v ends past the range of simx.Time", ev.Duration)
	case math.IsNaN(ev.Factor) || math.IsInf(ev.Factor, 0) || ev.Factor < 0:
		return fmt.Errorf("factor %v is not a finite nonnegative number", ev.Factor)
	case ev.Kind > KindClusterReplug:
		return fmt.Errorf("unknown kind %d", ev.Kind)
	case ev.Cluster.Switch < 0 || ev.Cluster.Switch >= g.Switches ||
		ev.Cluster.Cluster < 0 || ev.Cluster.Cluster >= g.ClustersPerSwitch:
		return fmt.Errorf("cluster %v outside the %dx%d array", ev.Cluster, g.Switches, g.ClustersPerSwitch)
	}
	moduleKind := ev.Kind == KindFIMMStall || ev.Kind == KindFIMMDeath || ev.Kind == KindChannelDegrade
	if moduleKind && (ev.FIMM < 0 || ev.FIMM >= g.FIMMsPerCluster) {
		return fmt.Errorf("FIMM %d outside a %d-FIMM cluster", ev.FIMM, g.FIMMsPerCluster)
	}
	switch ev.Kind {
	case KindFIMMStall:
		return cluster.CheckLatencyScale(g.Nand, ev.Factor)
	case KindChannelDegrade:
		return checkScale(cfg.ChannelPageTime(), ev.Factor, "a page's channel transfer")
	case KindLinkDegrade:
		page := units.TransferTime(g.Nand.PageSizeBytes+pcie.TLPOverheadBytes, cfg.EPLinkBytesPerSec)
		return checkScale(page, ev.Factor, "a page's link transfer")
	case KindBlockReadFail, KindBlockWearOut, KindDieReadFail:
		b := ev.Block
		if b.Page() != 0 {
			return fmt.Errorf("block %v carries page %d, not page 0", b, b.Page())
		}
		if b.ClusterID() != ev.Cluster || b.FIMMSlot() >= g.FIMMsPerCluster || b.Pkg() >= g.PackagesPerFIMM ||
			b.Die() >= g.Nand.DiesPerPackage || b.Block() >= g.Nand.BlocksPerPlane.Int()*g.Nand.PlanesPerDie {
			return fmt.Errorf("block %v outside cluster %v of the geometry", b, ev.Cluster)
		}
	case KindFIMMDeath, KindLinkRetrain, KindClusterUnplug, KindClusterReplug:
		// The checks above cover them.
	}
	return nil
}

// checkScale rejects a factor that stretches the time t of what past
// the range of simx.Time.
func checkScale(t simx.Time, factor float64, what string) error {
	if float64(t)*factor >= math.MaxInt64 {
		return fmt.Errorf("factor %v takes %s past the range of simx.Time", factor, what)
	}
	return nil
}

// ReferencePlan is the acceptance scenario used by the degraded-array
// study and the faulted golden-replay test: one FIMM death early in the
// run, and one cluster hot-unplugged mid-run and replugged late, on the
// last switch so death and unplug hit disjoint hardware.
func ReferencePlan(g topo.Geometry, span simx.Time) Plan {
	dead := topo.ClusterID{Switch: 0, Cluster: 0}
	pulled := topo.ClusterID{Switch: g.Switches - 1, Cluster: g.ClustersPerSwitch - 1}
	return Plan{Events: []Event{
		{At: span / 5, Kind: KindFIMMDeath, Cluster: dead, FIMM: 1 % g.FIMMsPerCluster},
		{At: 2 * span / 5, Kind: KindClusterUnplug, Cluster: pulled},
		{At: 7 * span / 10, Kind: KindClusterReplug, Cluster: pulled},
	}}
}
