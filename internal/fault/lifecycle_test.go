package fault

import (
	"testing"

	"triplea/internal/array"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/units"
	"triplea/internal/workload"
)

// The fault paths retire pooled objects on routes the healthy hot path
// never takes: array.failPage recycles a failed page's packets, command
// and pageRef by hand, the RetireMark handshake must still resolve when
// the flush side arrives with an error, the evacuation pump chains
// background migrations whose commands recycle at flush, and a GC
// round on faulted hardware abandons reads and erases mid-flight.
// Killing hardware mid-flight drives every one of those release points.
// Under -tags simcheck the leak ledger is armed too: a missed release
// fails AssertDrained with the pool's name, and a double release panics
// in PoolCheck. Without the tag the ledger calls are no-ops and each
// row still proves the run terminates with every request accounted for.

// lifecycleCase is one row of the fault-lifecycle table.
type lifecycleCase struct {
	name    string
	cfg     array.Config
	reqs    []trace.Request
	plan    Plan
	recover bool
}

// gcOverwriteConfig is the repository benchmark's gc-overwrite array: a
// tiny-block 2x8 geometry that keeps garbage collection running
// constantly under uniform overwrites.
func gcOverwriteConfig() array.Config {
	cfg := array.DefaultConfig()
	cfg.Geometry.Switches = 2
	cfg.Geometry.ClustersPerSwitch = 8
	cfg.Geometry.Nand.BlocksPerPlane = 8
	cfg.Geometry.Nand.PagesPerBlock = 16
	cfg.GCThreshold = 4 * units.Block
	return cfg
}

// gcOverwriteTraffic is a 50/50 read/overwrite mix over 2048 pages,
// offered at 40k IOPS: enough that GC rounds are in flight whenever a
// fault lands.
func gcOverwriteTraffic(t *testing.T, g topo.Geometry) []trace.Request {
	t.Helper()
	p := workload.MicroWrite(0, 20_000, 40_000)
	p.ReadRatio = 0.5
	p.Footprint = 2048 * units.Page
	reqs, _, err := workload.Generate(g, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func lifecycleCases(t *testing.T) []lifecycleCase {
	small := testConfig()
	burst := testTraffic(small.Geometry, 3000)
	span := burst[len(burst)-1].Arrival
	// Mid-flight: both events land while the burst is in full swing, so
	// in-flight commands on the victims fail at every stage of their
	// life (queued, on the bus, at the die, awaiting flush).
	killAndPull := Plan{Events: []Event{
		{At: span / 3, Kind: KindFIMMDeath,
			Cluster: topo.ClusterID{Switch: 0, Cluster: 0}, FIMM: 1},
		{At: span / 2, Kind: KindClusterUnplug,
			Cluster: topo.ClusterID{Switch: 1, Cluster: 1}},
	}}

	gc := gcOverwriteConfig()
	overwrite := gcOverwriteTraffic(t, gc.Geometry)
	gcSpan := overwrite[len(overwrite)-1].Arrival
	// Ten seeded FIMM deaths across the run: one of them kills a module
	// while a GC read is on its way, so the read completes with an
	// error and the round abandons the move (array.execGCMoves).
	fimmDeaths := Plan{Seed: 7, Random: RandomSpec{
		Count: 10, End: gcSpan, Kinds: []Kind{KindFIMMDeath},
	}}
	// One failed die under GC pressure with recovery off: the injector
	// leaves the FTL alone, so GC picks a victim on the dead die and the
	// device refuses its erase (fimm's failed-erase completion). GC must
	// retire the die and move on, or every later round fails the same
	// way without end.
	deadDie := Plan{Events: []Event{{
		At: gcSpan / 10, Kind: KindDieReadFail,
		Cluster: topo.ClusterID{Switch: 0, Cluster: 0}, FIMM: 0,
		Block: topo.PackPPN(0, 0, 0, 0, 0, 0, 0),
	}}}

	// A one-FIMM array whose cluster is unplugged mid-run with recovery
	// on: there is nowhere to evacuate to, so the cluster goes offline,
	// write redirection finds no placeable fallback FIMM, and the writes
	// fail downstream.
	lone := testConfig()
	lone.Geometry.Switches, lone.Geometry.ClustersPerSwitch, lone.Geometry.FIMMsPerCluster = 1, 1, 1
	var writes []trace.Request
	for i := 0; i < 200; i++ {
		writes = append(writes, trace.Request{
			Arrival: simx.Time(i) * 2 * simx.Microsecond, Op: trace.Write, LPN: int64(i % 64), Pages: 1,
		})
	}
	unplugLone := Plan{Events: []Event{{At: writes[100].Arrival, Kind: KindClusterUnplug}}}

	return []lifecycleCase{
		{name: "fimm-death+unplug-recover-off", cfg: small, reqs: burst, plan: killAndPull},
		{name: "fimm-death+unplug-recover-on", cfg: small, reqs: burst, plan: killAndPull, recover: true},
		{name: "gc-overwrite-fimm-deaths", cfg: gc, reqs: overwrite, plan: fimmDeaths},
		{name: "gc-overwrite-die-fail-recover-off", cfg: gc, reqs: overwrite, plan: deadDie},
		{name: "one-fimm-unplug-recover-on", cfg: lone, reqs: writes, plan: unplugLone, recover: true},
	}
}

// TestFaultLifecyclePoolsDrain runs each row to completion and checks
// that every submitted request either completed or failed and, under
// -tags simcheck, that every pool drained.
func TestFaultLifecyclePoolsDrain(t *testing.T) {
	for _, tc := range lifecycleCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			a, err := array.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			drainSnap := simx.SnapshotLedger()
			inj := Attach(a, tc.plan, Options{Recover: tc.recover})
			rec, err := a.Run(tc.reqs)
			if err != nil {
				t.Fatal(err)
			}
			if a.InFlight() != 0 {
				t.Fatalf("%d requests stuck", a.InFlight())
			}
			if got, want := rec.Count()+rec.FailedCount(), len(tc.reqs); got != want {
				t.Errorf("completed %d + failed %d != submitted %d", rec.Count(), rec.FailedCount(), want)
			}
			if got, want := inj.Stats().Injected, len(inj.Events()); got != want {
				t.Errorf("injected %d events, want %d", got, want)
			}
			if err := simx.AssertDrained(drainSnap); err != nil {
				t.Fatalf("fault paths leaked pooled objects: %v", err)
			}
		})
	}
}
