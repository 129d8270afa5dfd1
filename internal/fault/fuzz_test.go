package fault

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"triplea/internal/array"
	"triplea/internal/simx"
	"triplea/internal/topo"
)

// eventBytes is the size of one scripted event in FuzzPlan's input:
// kind, switch, cluster and FIMM bytes, then At, Block, the Factor's
// bits and Duration as little-endian 64-bit words.
const eventBytes = 4 + 4*8

// appendEvent encodes ev as FuzzPlan's decodeEvents reads it.
func appendEvent(b []byte, ev Event) []byte {
	b = append(b, byte(ev.Kind), byte(ev.Cluster.Switch), byte(ev.Cluster.Cluster), byte(ev.FIMM))
	for _, w := range []uint64{uint64(ev.At), uint64(ev.Block), math.Float64bits(ev.Factor), uint64(ev.Duration)} {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// decodeEvents reads up to 8 scripted events; coordinates are signed
// bytes, so negative and out-of-geometry targets occur.
func decodeEvents(b []byte) []Event {
	var evs []Event
	for ; len(b) >= eventBytes && len(evs) < 8; b = b[eventBytes:] {
		w := func(i int) uint64 { return binary.LittleEndian.Uint64(b[4+8*i:]) }
		evs = append(evs, Event{
			Kind:     Kind(b[0]),
			Cluster:  topo.ClusterID{Switch: int(int8(b[1])), Cluster: int(int8(b[2]))},
			FIMM:     int(int8(b[3])),
			At:       simx.Time(w(0)),
			Block:    topo.PPN(w(1)),
			Factor:   math.Float64frombits(w(2)),
			Duration: simx.Time(w(3)),
		})
	}
	return evs
}

// FuzzPlan builds a fault plan from up to 8 scripted events and a
// random tail of at most 32 events, on testConfig's geometry. The
// checks: Validate never panics; Materialize returns the same events
// twice, len(Events)+Count of them, in its documented total order
// (time, kind, flat cluster, FIMM, block); every random event lies
// inside the geometry; an accepted plan attaches and fires every event
// on an idle array; and Attach panics on a rejected plan. The array
// serves no traffic: with writes, a plan that kills FIMMs can run the
// FTL out of space.
func FuzzPlan(f *testing.F) {
	cl := topo.ClusterID{Switch: 1, Cluster: 1}
	// A block read failure whose Block carries page 300: Validate must
	// reject it, or the run panics in the NAND address check.
	f.Add(appendEvent(nil, Event{At: 1000, Kind: KindBlockReadFail, Cluster: cl, Block: topo.PackPPN(1, 1, 0, 0, 0, 3, 300)}),
		uint64(0), uint8(0), int64(0), int64(0), []byte(nil), false)
	var ref []byte
	for _, ev := range ReferencePlan(testConfig().Geometry, simx.Millisecond).Events {
		ref = appendEvent(ref, ev)
	}
	f.Add(ref, uint64(1), uint8(0), int64(0), int64(0), []byte(nil), true)
	f.Add(appendEvent(nil, Event{At: 5, Kind: KindDieReadFail, Cluster: cl, Block: topo.PackPPN(1, 1, 1, 1, 0, 63, 0)}),
		uint64(7), uint8(32), int64(0), int64(simx.Millisecond), []byte(nil), true)
	f.Add([]byte(nil), uint64(3), uint8(12), int64(simx.Microsecond), int64(simx.Millisecond),
		[]byte{byte(KindFIMMDeath), byte(KindBlockWearOut), byte(KindClusterUnplug), byte(KindClusterReplug)}, false)
	f.Fuzz(func(t *testing.T, events []byte, seed uint64, count uint8, start, end int64, kinds []byte, recoverOn bool) {
		cfg := testConfig()
		g := cfg.Geometry
		random := RandomSpec{Count: int(count % 33), Start: simx.Time(start), End: simx.Time(end)}
		for _, k := range kinds {
			random.Kinds = append(random.Kinds, Kind(k))
		}
		p := Plan{Seed: seed, Events: decodeEvents(events), Random: random}
		verr := p.Validate(cfg)

		got := p.Materialize(g)
		same := func(a, b Event) bool {
			fa, fb := math.Float64bits(a.Factor), math.Float64bits(b.Factor)
			a.Factor, b.Factor = 0, 0
			return a == b && fa == fb
		}
		if again := p.Materialize(g); !slices.EqualFunc(got, again, same) {
			t.Fatal("two materializations of one plan differ")
		}
		if len(got) != len(p.Events)+random.Count {
			t.Fatalf("materialized %d events, want %d scripted + %d random", len(got), len(p.Events), random.Count)
		}
		if !slices.IsSortedFunc(got, func(a, b Event) int {
			return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Kind, b.Kind),
				cmp.Compare(a.Cluster.Flat(&g), b.Cluster.Flat(&g)), cmp.Compare(a.FIMM, b.FIMM), cmp.Compare(a.Block, b.Block))
		}) {
			t.Fatal("materialized events are not in (time, kind, cluster, FIMM, block) order")
		}
		for _, ev := range (Plan{Seed: seed, Random: random}).Materialize(g) {
			b := ev.Block
			if ev.Cluster.Switch < 0 || ev.Cluster.Switch >= g.Switches || ev.Cluster.Cluster < 0 ||
				ev.Cluster.Cluster >= g.ClustersPerSwitch || ev.FIMM < 0 || ev.FIMM >= g.FIMMsPerCluster ||
				b.ClusterID() != ev.Cluster || b.FIMMSlot() != ev.FIMM || b.Pkg() >= g.PackagesPerFIMM ||
				b.Die() >= g.Nand.DiesPerPackage || b.Block() >= g.Nand.BlocksPerPlane.Int()*g.Nand.PlanesPerDie || b.Page() != 0 {
				t.Fatalf("random event %v (block %v) lies outside the geometry", ev, b)
			}
		}

		a, err := array.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if verr != nil {
			defer func() {
				if err, _ := recover().(error); err == nil || err.Error() != verr.Error() {
					t.Fatalf("Attach of a plan Validate rejects (%v) panicked with %v", verr, err)
				}
			}()
			Attach(a, p, Options{Recover: recoverOn})
			return
		}
		inj := Attach(a, p, Options{Recover: recoverOn})
		if _, err := a.Run(nil); err != nil {
			t.Fatalf("idle run: %v", err)
		}
		if n := inj.Stats().Injected; n != len(got) {
			t.Fatalf("%d of %d events fired", n, len(got))
		}
	})
}
