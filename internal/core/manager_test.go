package core

import (
	"slices"
	"testing"

	"triplea/internal/array"
	"triplea/internal/cluster"
	"triplea/internal/decision"
	"triplea/internal/metrics"
	"triplea/internal/nand"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/workload"
)

// smallConfig returns a 2x8 array small enough for fast end-to-end runs.
func smallConfig() array.Config {
	cfg := array.DefaultConfig()
	cfg.Geometry.Switches = 2
	cfg.Geometry.ClustersPerSwitch = 8
	cfg.Geometry.PackagesPerFIMM = 4
	cfg.Geometry.Nand.BlocksPerPlane = 64
	return cfg
}

func TestStrategyString(t *testing.T) {
	if LatencyMonitoring.String() != "latency-monitoring" ||
		QueueExamination.String() != "queue-examination" {
		t.Error("LaggardStrategy.String mismatch")
	}
}

func TestDefaultOptions(t *testing.T) {
	opt := DefaultOptions()
	if !opt.LinkManagement || !opt.StorageManagement || !opt.ShadowCloning {
		t.Error("DefaultOptions does not enable the full feature set")
	}
}

func TestHotThresholdEquation1(t *testing.T) {
	a, err := array.New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := Attach(a, DefaultOptions())
	// Equation 1 RHS: tDMA*(npage + nFIMM - 1) + texe*npage.
	n := a.Config().Geometry.Nand
	texe := n.TCmdOverhead + n.TRead + n.TECCPerPage
	tdma := a.Config().BusPageTime()
	want := tdma*simx.Time(1+4-1) + texe
	if got := m.hotThreshold(1); got != want {
		t.Errorf("hotThreshold(1) = %v, want %v", got, want)
	}
	want2 := tdma*simx.Time(2+4-1) + 2*texe
	if got := m.hotThreshold(2); got != want2 {
		t.Errorf("hotThreshold(2) = %v, want %v", got, want2)
	}
}

func TestAttachDefaultsZeroOptions(t *testing.T) {
	a, _ := array.New(smallConfig())
	m := Attach(a, Options{})
	if m.opt.MaxInflightMigrations <= 0 {
		t.Error("Attach left zero limits in place")
	}
}

// runWorkload builds an array (optionally managed), runs the profile,
// and returns recorder + manager.
func runWorkload(t *testing.T, p workload.Profile, managed bool) (*metrics.Recorder, *Manager) {
	t.Helper()
	cfg := smallConfig()
	a, err := array.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var m *Manager
	if managed {
		m = Attach(a, DefaultOptions())
	}
	reqs, _, err := workload.Generate(cfg.Geometry, p, 12345)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return rec, m
}

func hotProfile() workload.Profile {
	// Two hot clusters at ~1.5x their effective service capacity: the
	// hot region congests while the rest of the array stays cool.
	p := workload.MicroRead(2, 8000, 240_000)
	p.Footprint = 256
	return p
}

func TestTripleAImprovesHotWorkload(t *testing.T) {
	base, _ := runWorkload(t, hotProfile(), false)
	auto, m := runWorkload(t, hotProfile(), true)

	if m.Stats().HotDetections == 0 {
		t.Fatal("no hot-cluster detections on a saturated hot region")
	}
	if m.Stats().Migrations == 0 {
		t.Fatal("no migrations despite hot detections")
	}
	bl, al := base.AvgLatency(), auto.AvgLatency()
	if al >= bl {
		t.Errorf("Triple-A latency %v not below baseline %v", al, bl)
	}
	bi, ai := base.IOPS(), auto.IOPS()
	if ai <= bi {
		t.Errorf("Triple-A IOPS %v not above baseline %v", ai, bi)
	}
	t.Logf("baseline: %v avg, %.0f IOPS; triple-a: %v avg, %.0f IOPS (%.1fx latency, %.2fx IOPS)",
		bl, bi, al, ai, float64(bl)/float64(al), ai/bi)

	// Contention times must drop (the Figure 10 claim).
	bc, ac := base.SumBreakdown(), auto.SumBreakdown()
	if ac.LinkContention() >= bc.LinkContention() {
		t.Errorf("link contention did not drop: %v -> %v", bc.LinkContention(), ac.LinkContention())
	}
	if ac.QueueStall() >= bc.QueueStall() {
		t.Errorf("queue stall did not drop: %v -> %v", bc.QueueStall(), ac.QueueStall())
	}
}

func TestNoGainWithoutHotClusters(t *testing.T) {
	// Per-cluster load matching the full-scale cfs/web regime (150K
	// IOPS over 64 clusters) on this 16-cluster test array.
	p := workload.MicroRead(0, 3000, 40_000)
	base, _ := runWorkload(t, p, false)
	auto, m := runWorkload(t, p, true)
	// cfs/web situation: no hot region, essentially no migrations, and
	// latencies within noise of each other.
	if m.Stats().Migrations > uint64(p.Requests/100) {
		t.Errorf("%d migrations on an uncontended workload", m.Stats().Migrations)
	}
	bl, al := base.AvgLatency(), auto.AvgLatency()
	ratio := float64(bl) / float64(al)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("uncontended latencies diverged: baseline %v vs triple-a %v", bl, al)
	}
}

func TestShadowCloningCounted(t *testing.T) {
	_, m := runWorkload(t, hotProfile(), true)
	if m.Stats().ShadowClones == 0 {
		t.Error("no shadow clones despite ShadowCloning enabled")
	}
	if m.Stats().ShadowClones > m.Stats().Migrations+m.Stats().Reshapes {
		t.Error("more shadow clones than moves")
	}
}

func TestDisabledManagerDoesNothing(t *testing.T) {
	cfg := smallConfig()
	a, _ := array.New(cfg)
	m := Attach(a, Options{}) // everything off
	reqs, _, err := workload.Generate(cfg.Geometry, hotProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Migrations != 0 || s.Reshapes != 0 || s.WriteRedirects != 0 {
		t.Errorf("disabled manager acted: %+v", s)
	}
}

func TestColdClusterSelectionStaysOnSwitch(t *testing.T) {
	a, _ := array.New(smallConfig())
	m := Attach(a, DefaultOptions())
	hot := topo.ClusterID{Switch: 1, Cluster: 3}
	cold, ok := m.coldClusterNear(hot, decision.Migration)
	if !ok {
		t.Fatal("no cold cluster on an idle array")
	}
	if cold.Switch != hot.Switch {
		t.Errorf("cold cluster %v crossed switches (hot %v)", cold, hot)
	}
	if cold == hot {
		t.Error("picked the hot cluster itself")
	}
}

func TestUtilizationSampling(t *testing.T) {
	a, _ := array.New(smallConfig())
	m := Attach(a, DefaultOptions())
	id := topo.ClusterID{Switch: 0, Cluster: 0}
	// Idle cluster: utilization 0 once a window has elapsed.
	a.Engine().RunUntil(cluster.BusSampleWindow)
	if u := m.utilization(id); u != 0 {
		t.Errorf("idle utilization = %v", u)
	}
	// Within the window the cached value is returned.
	if u := m.utilization(id); u != 0 {
		t.Errorf("cached utilization = %v", u)
	}
}

func TestWriteTargetRedirectsFromLaggard(t *testing.T) {
	cfg := smallConfig()
	cfg.FIMMQueueDepth = 1
	a, _ := array.New(cfg)
	m := Attach(a, DefaultOptions())
	id := topo.ClusterID{Switch: 0, Cluster: 0}
	ep := a.Endpoint(id)

	// Saturate FIMM 0 with reads so commands stall in the EP queue.
	g := cfg.Geometry
	for i := 0; i < 40; i++ {
		lpn := int64(i) // cluster 0, FIMM 0 under clustered layout
		if _, _, err := a.FTL().Prepopulate(lpn); err != nil {
			t.Fatal(err)
		}
		ppn, _ := a.FTL().Lookup(lpn)
		if err := a.Endpoint(id).FIMM(ppn.FIMMSlot()).Package(ppn.Pkg()).ForcePopulate(ppn.NandAddr(&g)); err != nil {
			t.Fatal(err)
		}
		ep.Submit(&cluster.Command{
			Op: cluster.OpRead, FIMM: ppn.FIMMSlot(), Pkg: ppn.Pkg(),
			Addrs: []nand.Addr{ppn.NandAddr(&g)}, Background: true,
		})
	}
	resident := topo.FIMMID{ClusterID: id, FIMM: 0}
	got := m.WriteTarget(0, resident)
	if got == resident {
		t.Error("write not redirected away from saturated FIMM 0")
	}
	if got.ClusterID != id {
		t.Errorf("redirect left the cluster: %v", got)
	}
	if m.Stats().WriteRedirects == 0 {
		t.Error("redirect not counted")
	}
	a.Engine().Run()
}

func TestQueueExaminationStrategy(t *testing.T) {
	cfg := smallConfig()
	cfg.FIMMQueueDepth = 1
	cfg.QueueEntries = 4
	a, _ := array.New(cfg)
	opt := DefaultOptions()
	opt.Strategy = QueueExamination
	m := Attach(a, opt)
	id := topo.ClusterID{Switch: 0, Cluster: 0}
	ep := a.Endpoint(id)

	// Below a full queue, queue examination reports nothing.
	if lag := m.detectLaggards(ep); lag != nil {
		t.Errorf("laggards on idle EP: %v", lag)
	}
	g := cfg.Geometry
	for i := 0; i < 8; i++ {
		lpn := int64(i)
		if _, _, err := a.FTL().Prepopulate(lpn); err != nil {
			t.Fatal(err)
		}
		ppn, _ := a.FTL().Lookup(lpn)
		if err := ep.FIMM(ppn.FIMMSlot()).Package(ppn.Pkg()).ForcePopulate(ppn.NandAddr(&g)); err != nil {
			t.Fatal(err)
		}
		ep.Submit(&cluster.Command{
			Op: cluster.OpRead, FIMM: ppn.FIMMSlot(), Pkg: ppn.Pkg(),
			Addrs: []nand.Addr{ppn.NandAddr(&g)}, Background: true,
		})
	}
	lag := m.detectLaggards(ep)
	if lag == nil || !lag[0] {
		t.Errorf("full queue did not blame FIMM 0: %v", lag)
	}
	a.Engine().Run()
}

func TestMigrationDeduplication(t *testing.T) {
	a, _ := array.New(smallConfig())
	m := Attach(a, DefaultOptions())
	if err := prepLPN(a, 0); err != nil {
		t.Fatal(err)
	}
	dst := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 1}, FIMM: 0}
	m.startMove(0, dst, false)
	m.startMove(0, dst, false) // duplicate while in flight
	if m.Stats().Migrations != 1 {
		t.Errorf("Migrations = %d, want 1 (dedup)", m.Stats().Migrations)
	}
	a.Engine().Run()
	if m.inflight != 0 {
		t.Errorf("inflight = %d after drain", m.inflight)
	}
}

func prepLPN(a *array.Array, lpn int64) error {
	ppn, need, err := a.FTL().Prepopulate(lpn)
	if err != nil {
		return err
	}
	if need {
		g := a.Config().Geometry
		return a.Endpoint(ppn.ClusterID()).FIMM(ppn.FIMMSlot()).Package(ppn.Pkg()).
			ForcePopulate(ppn.NandAddr(&g))
	}
	return nil
}

func TestMigrationThrottle(t *testing.T) {
	a, _ := array.New(smallConfig())
	opt := DefaultOptions()
	opt.MaxInflightMigrations = 2
	m := Attach(a, opt)
	for lpn := int64(0); lpn < 5; lpn++ {
		if err := prepLPN(a, lpn); err != nil {
			t.Fatal(err)
		}
		dst := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 1}, FIMM: 0}
		m.startMove(lpn, dst, false)
	}
	if m.Stats().Migrations != 2 {
		t.Errorf("Migrations = %d, want cap 2", m.Stats().Migrations)
	}
	a.Engine().Run()
}

func TestWriteHeavyWorkloadWithReshaping(t *testing.T) {
	p := workload.MicroWrite(2, 5000, 400_000)
	p.Footprint = 256
	base, _ := runWorkload(t, p, false)
	auto, m := runWorkload(t, p, true)
	if base.Count() != 5000 || auto.Count() != 5000 {
		t.Fatal("writes lost")
	}
	// With storage management on, redirects should occur under write
	// pressure, and latency must not regress.
	if m.Stats().WriteRedirects == 0 && m.Stats().Reshapes == 0 {
		t.Log("no reshaping triggered (write buffering may absorb the load)")
	}
	if auto.AvgLatency() > 2*base.AvgLatency() {
		t.Errorf("Triple-A write latency regressed: %v vs %v", auto.AvgLatency(), base.AvgLatency())
	}
}

func TestWearAwarePlacement(t *testing.T) {
	cfg := smallConfig()
	cfg.Geometry.Nand.PagesPerBlock = 4
	cfg.Geometry.Nand.BlocksPerPlane = 8
	a, _ := array.New(cfg)
	opt := DefaultOptions()
	m := Attach(a, opt)
	id := topo.ClusterID{Switch: 0, Cluster: 0}

	// Artificially wear FIMM 0 of the cluster: overwrite a small set
	// until blocks fill and fully-stale victims appear, then erase them.
	f := a.FTL()
	worn := topo.FIMMID{ClusterID: id, FIMM: 0}
	for round := 0; round < 7; round++ {
		for lpn := int64(0); lpn < 64; lpn++ {
			if _, err := f.AllocateWriteAt(lpn, worn); err != nil {
				t.Fatal(err)
			}
		}
	}
	for {
		plan, ok := f.PlanGC(worn, nil)
		if !ok || len(plan.Moves) > 0 {
			break
		}
		if err := f.CompleteGCErase(plan); err != nil {
			t.Fatal(err)
		}
	}
	if f.Wear(worn) == 0 {
		t.Fatal("could not manufacture wear in this geometry")
	}

	// With equal stall counts everywhere, placement must avoid the
	// worn module.
	if got := m.leastStalledFIMM(id); got == worn.FIMM {
		t.Errorf("wear-aware placement picked the worn FIMM %d", got)
	}

	// With wear awareness off, slot 0 (first minimum) wins the tie.
	opt2 := DefaultOptions()
	opt2.WearAware = false
	a2, _ := array.New(smallConfig())
	m2 := Attach(a2, opt2)
	if got := m2.leastStalledFIMM(id); got != 0 {
		t.Errorf("wear-oblivious tie-break = %d, want 0", got)
	}
}

func TestDegradedFIMMReshapedAway(t *testing.T) {
	// An 8x-slow FIMM receives most of the cluster's data; Triple-A
	// must drain it via laggard reshaping.
	slow := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 0}, FIMM: 0}
	p := workload.MicroRead(1, 6000, 20_000)
	p.HotIORatio = 0.8
	p.Footprint = 128

	run := func(autonomic bool) (simx.Time, *Manager) {
		cfg := smallConfig()
		cfg.DegradedFIMMs = map[topo.FIMMID]float64{slow: 8}
		a, _ := array.New(cfg)
		var m *Manager
		if autonomic {
			m = Attach(a, DefaultOptions())
		}
		reqs, _, err := workload.Generate(cfg.Geometry, p, 5)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := a.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rec.AvgLatency(), m
	}
	base, _ := run(false)
	auto, m := run(true)
	if auto >= base {
		t.Errorf("Triple-A (%v) did not beat baseline (%v) with a degraded FIMM", auto, base)
	}
	if m.Stats().LaggardsDetected == 0 || m.Stats().Reshapes == 0 {
		t.Errorf("no laggard handling on a degraded FIMM: %+v", m.Stats())
	}
}

func TestLPNRing(t *testing.T) {
	r := newLPNRing(4)
	// The scratch starts dirty: snapshot must overwrite it from index 0
	// and keep its backing array.
	scratch := []int64{9, 9, 9, 9, 9}
	if got := r.snapshot(scratch); len(got) != 0 {
		t.Errorf("empty ring snapshot = %v", got)
	}
	r.add(1)
	r.add(2)
	r.add(3)
	if got := r.snapshot(scratch); !slices.Equal(got, []int64{3, 2, 1}) {
		t.Errorf("snapshot = %v, want [3 2 1]", got)
	}
	// Wrap and dedup: the ring holds 4 4 2 3, most recent first.
	r.add(2)
	r.add(4)
	r.add(4)
	got := r.snapshot(scratch)
	if !slices.Equal(got, []int64{4, 2, 3}) {
		t.Errorf("snapshot = %v, want [4 2 3]", got)
	}
	if &got[0] != &scratch[0] {
		t.Error("snapshot did not reuse the scratch slice")
	}
}

func TestBatchReshapingDrainsLaggard(t *testing.T) {
	// Degraded FIMM + batch reshaping: after the run, a good share of
	// the working set must have left the laggard.
	slow := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 0}, FIMM: 0}
	cfg := smallConfig()
	cfg.DegradedFIMMs = map[topo.FIMMID]float64{slow: 8}
	a, _ := array.New(cfg)
	Attach(a, DefaultOptions())
	p := workload.MicroRead(1, 5000, 20_000)
	p.HotIORatio = 0.8
	p.Footprint = 128
	reqs, _, err := workload.Generate(cfg.Geometry, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	onLaggard := 0
	perFIMM := cfg.Geometry.PagesPerFIMM().Int64()
	for lpn := int64(0); lpn < perFIMM && lpn < 128; lpn++ {
		if a.FTL().ResidentFIMM(lpn) == slow {
			onLaggard++
		}
	}
	if onLaggard > 64 {
		t.Errorf("%d of 128 hot pages still on the degraded FIMM", onLaggard)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
