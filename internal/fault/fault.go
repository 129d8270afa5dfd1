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
	"slices"

	"triplea/internal/simx"
	"triplea/internal/topo"
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
