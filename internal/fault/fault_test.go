package fault

import (
	"slices"
	"testing"

	"triplea/internal/array"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
)

// testConfig mirrors the array package's small 2x2 test geometry.
func testConfig() array.Config {
	cfg := array.DefaultConfig()
	cfg.Geometry.Switches = 2
	cfg.Geometry.ClustersPerSwitch = 2
	cfg.Geometry.FIMMsPerCluster = 2
	cfg.Geometry.PackagesPerFIMM = 2
	cfg.Geometry.Nand.DiesPerPackage = 1
	// Enough blocks that the survivors can absorb a dead FIMM plus an
	// evacuated cluster (3 of 8 modules) without running out of space.
	cfg.Geometry.Nand.BlocksPerPlane = 32
	cfg.Geometry.Nand.PagesPerBlock = 4
	return cfg
}

// testTraffic is a mixed read/write load over 512 LPNs strided across
// the whole (range-partitioned) LPN space so every FIMM holds data,
// long enough to straddle every ReferencePlan event.
func testTraffic(g topo.Geometry, n int) []trace.Request {
	stride := g.TotalPages().Int64() / 512
	reqs := make([]trace.Request, 0, n)
	for i := 0; i < n; i++ {
		op := trace.Read
		if i%3 == 0 {
			op = trace.Write
		}
		reqs = append(reqs, trace.Request{
			Arrival: simx.Time(i) * 2 * simx.Microsecond,
			Op:      op, LPN: int64(i%512) * stride, Pages: 1,
		})
	}
	return reqs
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{
		KindFIMMStall, KindFIMMDeath, KindBlockReadFail, KindBlockWearOut,
		KindDieReadFail, KindChannelDegrade, KindLinkDegrade,
		KindLinkRetrain, KindClusterUnplug, KindClusterReplug,
	}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d stringifies to %q", k, s)
		}
		seen[s] = true
	}
	if Kind(250).String() != "unknown" {
		t.Error("out-of-range kind must stringify to unknown")
	}
}

// TestMaterializeDeterministic pins the plan-resolution contract: the
// same seed yields the identical schedule, a different seed does not,
// and the result is totally ordered by time.
func TestMaterializeDeterministic(t *testing.T) {
	g := testConfig().Geometry
	p := Plan{
		Seed:   7,
		Events: ReferencePlan(g, 10*simx.Millisecond).Events,
		Random: RandomSpec{Count: 25, Start: 0, End: 10 * simx.Millisecond},
	}
	a, b := p.Materialize(g), p.Materialize(g)
	if len(a) != len(b) || len(a) != 3+25 {
		t.Fatalf("materialized %d and %d events, want %d", len(a), len(b), 28)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same plan diverged at event %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i].At < a[i-1].At {
			t.Fatalf("events out of order at %d: %v after %v", i, a[i].At, a[i-1].At)
		}
	}
	// The test geometry has one die per package, so a die drawn from
	// anything but the plan's seed would still agree there. The default
	// geometry (2 dies, 2 planes, 8 packages) has a choice in every
	// coordinate.
	full := array.DefaultConfig().Geometry
	if x, y := p.Materialize(full), p.Materialize(full); !slices.Equal(x, y) {
		t.Fatal("same plan diverged on the default geometry")
	}
	p.Seed = 8
	c := p.Materialize(g)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the identical schedule")
	}
}

// TestReferencePlanRecovery runs the acceptance scenario end to end
// with recovery on: zero failed requests, the dead FIMM's and pulled
// cluster's pages leave the faulted hardware, and the recovery record
// closes with a positive time-to-recover.
func TestReferencePlanRecovery(t *testing.T) {
	cfg := testConfig()
	a, err := array.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := testTraffic(cfg.Geometry, 4000)
	span := reqs[len(reqs)-1].Arrival
	plan := ReferencePlan(cfg.Geometry, span)
	inj := Attach(a, plan, Options{Recover: true})
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a.InFlight() != 0 {
		t.Fatalf("%d requests stuck after faulted run", a.InFlight())
	}
	if got := a.FaultStats().RequestsFailed; got != 0 {
		t.Errorf("recovery left %d failed requests, want 0", got)
	}
	if rec.FailedCount() != 0 {
		t.Errorf("recorder logged %d failures, want 0", rec.FailedCount())
	}
	st := inj.Stats()
	if st.Injected != len(plan.Events) {
		t.Errorf("injected %d events, want %d", st.Injected, len(plan.Events))
	}
	if len(st.Recoveries) != 1 {
		t.Fatalf("recorded %d recoveries, want 1", len(st.Recoveries))
	}
	r := st.Recoveries[0]
	if r.TTR() <= 0 {
		t.Errorf("time-to-recover %v, want > 0", r.TTR())
	}
	if st.Evacuated == 0 {
		t.Error("no pages evacuated off the pulled cluster")
	}
	if r.Evacuated == 0 {
		t.Error("recovery record shows no evacuated pages")
	}
	pulled := plan.Events[1].Cluster
	if a.Health().Cluster(pulled) != topo.ClusterOnline {
		t.Errorf("replugged cluster is %v, want online", a.Health().Cluster(pulled))
	}
	if a.Endpoint(pulled).Unplugged() {
		t.Error("replugged cluster still unplugged")
	}
	// The dead FIMM stays dead and empty.
	dead := topo.FIMMID{ClusterID: plan.Events[0].Cluster, FIMM: plan.Events[0].FIMM}
	if n := len(a.FTL().MappedOnFIMM(dead)); n != 0 {
		t.Errorf("%d pages still mapped on the dead FIMM", n)
	}
	if a.Health().FIMM(dead) != topo.FIMMDead {
		t.Error("dead FIMM not marked in the health registry")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Errorf("post-recovery consistency: %v", err)
	}
}

// TestEvacuationCompletes unplugs a cluster with no replug scripted:
// the drain must run to completion, emptying the cluster and releasing
// the hardware, and the recovery record must close.
func TestEvacuationCompletes(t *testing.T) {
	cfg := testConfig()
	a, err := array.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := testTraffic(cfg.Geometry, 4000)
	span := reqs[len(reqs)-1].Arrival
	pulled := topo.ClusterID{Switch: 1, Cluster: 1}
	plan := Plan{Events: []Event{
		{At: span / 4, Kind: KindClusterUnplug, Cluster: pulled},
	}}
	inj := Attach(a, plan, Options{Recover: true})
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if a.InFlight() != 0 {
		t.Fatalf("%d requests stuck", a.InFlight())
	}
	st := inj.Stats()
	if len(st.Recoveries) != 1 {
		t.Fatalf("recorded %d recoveries, want 1", len(st.Recoveries))
	}
	r := st.Recoveries[0]
	if r.Done <= r.Start || r.Evacuated == 0 {
		t.Errorf("recovery did not complete: %+v", r)
	}
	if n := len(a.FTL().MappedOnCluster(pulled)); n != 0 {
		t.Errorf("%d pages left on the evacuated cluster", n)
	}
	if a.Health().Cluster(pulled) != topo.ClusterOffline {
		t.Errorf("evacuated cluster is %v, want offline", a.Health().Cluster(pulled))
	}
	if !a.Endpoint(pulled).Unplugged() {
		t.Error("evacuated cluster not released")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Errorf("post-evacuation consistency: %v", err)
	}
}

// TestReferencePlanNoRecovery runs the same scenario with autonomics
// off: affected requests fail (and are accounted), but the run still
// drains completely.
func TestReferencePlanNoRecovery(t *testing.T) {
	cfg := testConfig()
	a, err := array.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := testTraffic(cfg.Geometry, 4000)
	span := reqs[len(reqs)-1].Arrival
	inj := Attach(a, ReferencePlan(cfg.Geometry, span), Options{Recover: false})
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a.InFlight() != 0 {
		t.Fatalf("%d requests stuck after faulted run", a.InFlight())
	}
	fs := a.FaultStats()
	if fs.RequestsFailed == 0 {
		t.Error("no requests failed with recovery off; the faults did nothing")
	}
	if uint64(rec.FailedCount()) != fs.RequestsFailed {
		t.Errorf("recorder failures %d != array counter %d", rec.FailedCount(), fs.RequestsFailed)
	}
	if rec.Count() == 0 {
		t.Error("no requests completed")
	}
	if st := inj.Stats(); len(st.Recoveries) != 0 {
		t.Errorf("recovery ran with Recover off: %+v", st.Recoveries)
	}
	if fs.WritesRedirected != 0 {
		t.Error("writes redirected with recovery off")
	}
}

// TestTransientFaults drives the degradation kinds (stall, channel,
// link, retrain, block faults) from a seeded random plan: the run must
// complete with every surviving request accounted.
func TestTransientFaults(t *testing.T) {
	cfg := testConfig()
	a, err := array.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := testTraffic(cfg.Geometry, 2000)
	span := reqs[len(reqs)-1].Arrival
	plan := Plan{Seed: 11, Random: RandomSpec{Count: 12, Start: 0, End: span}}
	inj := Attach(a, plan, Options{Recover: true})
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a.InFlight() != 0 {
		t.Fatalf("%d requests stuck", a.InFlight())
	}
	if got := inj.Stats().Injected; got != 12 {
		t.Errorf("injected %d events, want 12", got)
	}
	if rec.Count()+rec.FailedCount() != 2000 {
		t.Errorf("completed %d + failed %d != submitted 2000", rec.Count(), rec.FailedCount())
	}
	if err := a.CheckConsistency(); err != nil {
		t.Errorf("post-fault consistency: %v", err)
	}
}

// TestReplugMidEvacuation replugs the cluster before its drain can
// finish: the hardware must not be released, and the array stays
// consistent.
func TestReplugMidEvacuation(t *testing.T) {
	cfg := testConfig()
	a, err := array.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := testTraffic(cfg.Geometry, 4000)
	span := reqs[len(reqs)-1].Arrival
	pulled := topo.ClusterID{Switch: 1, Cluster: 1}
	plan := Plan{Events: []Event{
		{At: span / 4, Kind: KindClusterUnplug, Cluster: pulled},
		// One event-step later: in-flight evacuation, nothing drained.
		{At: span/4 + simx.Nanosecond, Kind: KindClusterReplug, Cluster: pulled},
	}}
	Attach(a, plan, Options{Recover: true, EvacConcurrency: 1})
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if a.InFlight() != 0 {
		t.Fatalf("%d requests stuck", a.InFlight())
	}
	if got := a.Health().Cluster(pulled); got != topo.ClusterOnline {
		t.Errorf("replugged cluster is %v, want online", got)
	}
	if a.Endpoint(pulled).Unplugged() {
		t.Error("replugged cluster still unplugged")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Errorf("post-replug consistency: %v", err)
	}
}
