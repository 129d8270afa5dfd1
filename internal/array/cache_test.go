package array

import (
	"runtime"
	"testing"

	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/units"
)

func TestDRAMCacheLRU(t *testing.T) {
	c := newDRAMCache(2)
	if c.lookup(1) {
		t.Error("hit on empty cache")
	}
	c.install(1)
	c.install(2)
	if !c.lookup(1) || !c.lookup(2) {
		t.Error("installed pages missing")
	}
	// Touch 1, install 3: 2 is the LRU victim.
	c.lookup(1)
	c.install(3)
	if c.lookup(2) {
		t.Error("LRU victim still cached")
	}
	if !c.lookup(1) || !c.lookup(3) {
		t.Error("retained pages evicted")
	}
	s := c.stats()
	if s.ResidentPages != 2 || s.CapacityPages != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.HitRate() <= 0 || s.HitRate() >= 1 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
}

func TestDRAMCacheDisabled(t *testing.T) {
	c := newDRAMCache(0)
	c.install(1)
	if c.lookup(1) {
		t.Error("disabled cache produced a hit")
	}
	if c.stats().HitRate() != 0 {
		t.Error("disabled cache counted hits")
	}
}

func TestDRAMCacheReinstallRefreshes(t *testing.T) {
	c := newDRAMCache(2)
	c.install(1)
	c.install(2)
	c.install(1) // refresh, not duplicate
	c.install(3) // evicts 2
	if c.lookup(2) {
		t.Error("refreshed page was evicted instead of LRU")
	}
	if !c.lookup(1) {
		t.Error("refreshed page missing")
	}
}

func TestHostDRAMServesRepeatedReads(t *testing.T) {
	cfg := testConfig()
	cfg.HostDRAMBytes = 64 << 20 // plenty for the working set
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 64 MiB of 4 KiB pages: the capacity the DRAM study's sizing relies on.
	if got := a.CacheStats().CapacityPages; got != 16384 {
		t.Fatalf("cache capacity = %d pages, want 16384", got)
	}
	var reqs []trace.Request
	for i := 0; i < 10; i++ {
		// The same page read ten times: one miss, nine hits.
		reqs = append(reqs, trace.Request{
			Arrival: simx.Time(i) * simx.Millisecond, Op: trace.Read, LPN: 7, Pages: 1,
		})
	}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	cs := a.CacheStats()
	if cs.Hits != 9 || cs.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 9/1", cs.Hits, cs.Misses)
	}
	// Hits complete at DRAM speed.
	fast := 0
	for _, r := range rec.Records() {
		if r.Latency() <= hostDRAMHitLatency {
			fast++
		}
	}
	if fast != 9 {
		t.Errorf("%d fast completions, want 9", fast)
	}
}

func TestHostDRAMCachesWrites(t *testing.T) {
	cfg := testConfig()
	cfg.HostDRAMBytes = 64 << 20
	a, _ := New(cfg)
	reqs := []trace.Request{
		{Arrival: 0, Op: trace.Write, LPN: 3, Pages: 1},
		{Arrival: simx.Millisecond, Op: trace.Read, LPN: 3, Pages: 1},
	}
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if cs := a.CacheStats(); cs.Hits != 1 {
		t.Errorf("read after write missed the cache: %+v", cs)
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	a, _ := New(testConfig())
	reqs := []trace.Request{
		{Arrival: 0, Op: trace.Read, LPN: 0, Pages: 1},
		{Arrival: simx.Millisecond, Op: trace.Read, LPN: 0, Pages: 1},
	}
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if cs := a.CacheStats(); cs.Hits != 0 || cs.CapacityPages != 0 {
		t.Errorf("default config cached: %+v", cs)
	}
}

// TestHostDRAMIndexLazy pins that New does not pay for the host DRAM
// cache's capacity before any page is cached: 4 GiB of host DRAM is a
// million 4 KiB pages, and an index presized to them costs tens of MiB
// on an array whose flash holds 128 pages.
func TestHostDRAMIndexLazy(t *testing.T) {
	cfg := testConfig()
	cfg.Geometry.Switches = 1
	cfg.Geometry.ClustersPerSwitch = 1
	cfg.Geometry.FIMMsPerCluster = 1
	cfg.Geometry.PackagesPerFIMM = 1
	cfg.HostDRAMBytes = 4 * units.GiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.CacheStats().CapacityPages; got != units.BytesToPages(cfg.HostDRAMBytes, cfg.Geometry.Nand.PageSizeBytes) {
		t.Fatalf("cache capacity = %d pages, want 4 GiB of pages", got)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("New with 4 GiB of host DRAM allocated %d B, want under 1 MiB", got)
	}
}

func TestDegradedFIMMSlowsReads(t *testing.T) {
	slow := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 0}, FIMM: 0}

	run := func(degrade bool) simx.Time {
		cfg := testConfig()
		if degrade {
			cfg.DegradedFIMMs = map[topo.FIMMID]float64{slow: 8}
		}
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// LPN 0 lives on FIMM 0 of cluster sw0/cl0 under the clustered
		// layout.
		rec, err := a.Run([]trace.Request{{Arrival: 0, Op: trace.Read, LPN: 0, Pages: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return rec.AvgLatency()
	}
	healthy, degraded := run(false), run(true)
	if degraded <= healthy {
		t.Fatalf("degraded FIMM not slower: %v vs %v", degraded, healthy)
	}
	// An 8x tR on a ~52us read should add several hundred us.
	if degraded-healthy < 7*DefaultConfig().Geometry.Nand.TRead/2 {
		t.Errorf("degradation too small: %v -> %v", healthy, degraded)
	}
}

func TestDegradationOnlyAffectsTargetSlot(t *testing.T) {
	slow := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 0}, FIMM: 0}
	cfg := testConfig()
	cfg.DegradedFIMMs = map[topo.FIMMID]float64{slow: 8}
	a, _ := New(cfg)
	// FIMM 1 of the same cluster stays healthy: its LPNs start at
	// PagesPerFIMM.
	other := cfg.Geometry.PagesPerFIMM().Int64()
	rec, err := a.Run([]trace.Request{{Arrival: 0, Op: trace.Read, LPN: other, Pages: 1}})
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Geometry.Nand
	limit := 2 * (n.TRead + n.TProg) // generous healthy bound
	if rec.AvgLatency() > limit {
		t.Errorf("healthy sibling latency %v suggests degradation leaked", rec.AvgLatency())
	}
}
