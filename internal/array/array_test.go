package array

import (
	"errors"
	"math"
	"strings"
	"testing"

	"triplea/internal/ftl"
	"triplea/internal/nand"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/units"
	"triplea/internal/workload"
)

// testConfig returns a small 2x2 array with tiny blocks so GC paths are
// reachable quickly.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry.Switches = 2
	cfg.Geometry.ClustersPerSwitch = 2
	cfg.Geometry.FIMMsPerCluster = 2
	cfg.Geometry.PackagesPerFIMM = 2
	cfg.Geometry.Nand.DiesPerPackage = 1
	cfg.Geometry.Nand.BlocksPerPlane = 16
	cfg.Geometry.Nand.PagesPerBlock = 4
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	// Paper baseline: 16 TB across 64 clusters.
	if got := cfg.Geometry.TotalBytes(); got != 16*1024*units.GiB {
		t.Errorf("capacity = %d, want 16 TiB", got)
	}
	if cfg.SLA != 3300*simx.Nanosecond {
		t.Errorf("SLA = %v, want 3.3us", cfg.SLA)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, mod := range []func(*Config){
		func(c *Config) { c.Geometry.Switches = 0 },
		func(c *Config) { c.EPLinkBytesPerSec = 0 },
		func(c *Config) { c.SwitchLinkBytesPerSec = -1 },
		func(c *Config) { c.EPLinkCredits = 0 },
		func(c *Config) { c.SwitchLinkCredits = 0 },
		func(c *Config) { c.RCQueueEntries = 0 },
		func(c *Config) { c.SLA = 0 },
		func(c *Config) { c.QueueEntries = 0 },
		func(c *Config) { c.HALLatency = -1 },
		func(c *Config) { c.LinkPropagation = -1 },
		func(c *Config) { c.SwitchRouteLatency = -1 },
		func(c *Config) { c.RCRouteLatency = -1 },
		func(c *Config) { c.Geometry.Nand.TCmdOverhead = -1 },
		func(c *Config) { c.Geometry.Nand.TECCPerPage = -1 },
		// Degradation factors that are NaN or overflow a cell timing.
		func(c *Config) { c.DegradedFIMMs = map[topo.FIMMID]float64{{}: math.NaN()} },
		func(c *Config) { c.DegradedFIMMs = map[topo.FIMMID]float64{{}: math.Inf(1)} },
		func(c *Config) { c.DegradedFIMMs = map[topo.FIMMID]float64{{}: 1e300} },
	} {
		cfg := DefaultConfig()
		mod(&cfg)
		if cfg.Validate() == nil {
			t.Error("Validate accepted bad config")
		}
		if _, err := New(cfg); err == nil {
			t.Error("New accepted bad config")
		}
	}
}

func TestSingleReadEndToEnd(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{{Arrival: 0, Op: trace.Read, LPN: 0, Pages: 1}}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 1 || rec.Reads() != 1 {
		t.Fatalf("recorded %d requests", rec.Count())
	}
	r := rec.Records()[0]
	if r.Latency() <= 0 {
		t.Error("non-positive latency")
	}
	b := r.Breakdown
	if b.Texe == 0 {
		t.Error("no cell time recorded")
	}
	if b.LinkXfer == 0 {
		t.Error("no link transfer recorded")
	}
	if b.FabricXfer == 0 {
		t.Error("no fabric transfer recorded")
	}
	// Uncontended single request: no queueing anywhere.
	if b.RCStall != 0 || b.EPWait != 0 || b.StorageWait != 0 || b.LinkWait != 0 {
		t.Errorf("unexpected stalls on idle array: %+v", b)
	}
}

func TestWriteEndToEnd(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	reqs := []trace.Request{{Arrival: 0, Op: trace.Write, LPN: 5, Pages: 1}}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Writes() != 1 {
		t.Fatalf("recorded %d writes", rec.Writes())
	}
	// Write latency excludes the flash program (early ack): it must be
	// well under tPROG.
	lat := rec.Records()[0].Latency()
	if lat >= a.Config().Geometry.Nand.TProg {
		t.Errorf("write latency %v not hidden by buffering (tPROG %v)",
			lat, a.Config().Geometry.Nand.TProg)
	}
	// The flush programmed the page: mapping exists and device agrees.
	ppn, ok := a.FTL().Lookup(5)
	if !ok {
		t.Fatal("write not mapped")
	}
	g := a.Config().Geometry
	if got := a.pkgAt(ppn).PageStateAt(ppn.NandAddr(&g)); got != nand.PageValid {
		t.Errorf("device page state = %v, want PageValid", got)
	}
	if a.FTL().Stats().HostWrites != 1 {
		t.Errorf("HostWrites = %d", a.FTL().Stats().HostWrites)
	}
}

func TestOverwriteMarksStale(t *testing.T) {
	a, _ := New(testConfig())
	reqs := []trace.Request{
		{Arrival: 0, Op: trace.Write, LPN: 9, Pages: 1},
		{Arrival: simx.Millisecond, Op: trace.Write, LPN: 9, Pages: 1},
		{Arrival: 2 * simx.Millisecond, Op: trace.Read, LPN: 9, Pages: 1},
	}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 3 {
		t.Fatalf("recorded %d", rec.Count())
	}
}

func TestMultiPageRequest(t *testing.T) {
	a, _ := New(testConfig())
	reqs := []trace.Request{{Arrival: 0, Op: trace.Read, LPN: 0, Pages: 4}}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 1 {
		t.Fatalf("recorded %d requests", rec.Count())
	}
	if rec.Records()[0].Pages != 4 {
		t.Errorf("pages = %d", rec.Records()[0].Pages)
	}
}

func TestPrepareMapsReadFootprint(t *testing.T) {
	a, _ := New(testConfig())
	reqs := []trace.Request{
		{Arrival: 0, Op: trace.Read, LPN: 10, Pages: 2},
		{Arrival: 0, Op: trace.Write, LPN: 50, Pages: 1},
	}
	if err := a.Prepare(reqs); err != nil {
		t.Fatal(err)
	}
	for _, lpn := range []int64{10, 11} {
		if _, ok := a.FTL().Lookup(lpn); !ok {
			t.Errorf("LPN %d not prepopulated", lpn)
		}
	}
	if _, ok := a.FTL().Lookup(50); ok {
		t.Error("write-only LPN was prepopulated")
	}
}

// TestRunRejectsRequestsPastCapacity pins that a trace request running
// past the last logical page is a Run error naming the request, never a
// panic deep in the FTL — for writes as for reads, and without
// overflow at the top of the int64 range. A malformed request (negative
// arrival, unknown op) is a Run error the same way.
func TestRunRejectsRequestsPastCapacity(t *testing.T) {
	cfg := testConfig()
	total := cfg.Geometry.TotalPages().Int64()
	cases := []struct {
		name string
		req  trace.Request
	}{
		{"write past the end", trace.Request{Op: trace.Write, LPN: total, Pages: 1}},
		{"write spanning the end", trace.Request{Op: trace.Write, LPN: total - 1, Pages: 2}},
		{"read spanning the end", trace.Request{Op: trace.Read, LPN: total - 1, Pages: 2}},
		{"write at MaxInt64", trace.Request{Op: trace.Write, LPN: math.MaxInt64, Pages: 2}},
		{"negative arrival", trace.Request{Arrival: -5, Op: trace.Write, LPN: 1, Pages: 1}},
		{"unknown op", trace.Request{Op: trace.Op(7), LPN: 1, Pages: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reqs := []trace.Request{{Op: trace.Write, LPN: total - 1, Pages: 1}, c.req}
			_, err = a.Run(reqs)
			if err == nil || !strings.Contains(err.Error(), "request 1 ") {
				t.Fatalf("Run error = %v, want one naming request 1", err)
			}
		})
	}
}

func TestContentionAppearsUnderConcentratedLoad(t *testing.T) {
	a, _ := New(testConfig())
	// Fire many simultaneous reads at one cluster: queueing must show up.
	var reqs []trace.Request
	for i := 0; i < 64; i++ {
		reqs = append(reqs, trace.Request{Arrival: 0, Op: trace.Read, LPN: int64(i), Pages: 1})
	}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	sum := rec.SumBreakdown()
	if sum.LinkWait == 0 {
		t.Error("no link contention under concentrated load")
	}
	if sum.StorageWait+sum.EPWait == 0 {
		t.Error("no storage contention under concentrated load")
	}
	// Latency must exceed the uncontended single-read latency.
	single, _ := New(testConfig())
	recS, _ := single.Run(reqs[:1])
	if rec.MaxLatency() <= recS.AvgLatency() {
		t.Error("contended max latency not above uncontended latency")
	}
}

func TestRCQueueAdmissionStall(t *testing.T) {
	cfg := testConfig()
	cfg.RCQueueEntries = 1
	a, _ := New(cfg)
	var reqs []trace.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, trace.Request{Arrival: 0, Op: trace.Read, LPN: int64(i), Pages: 1})
	}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SumBreakdown().RCStall == 0 {
		t.Error("no RC stall with a single-entry RC queue")
	}
}

// migratedFunc adapts a function to Migrated.
type migratedFunc func(err error)

func (f migratedFunc) OnMigrated(_ int64, err error) { f(err) }

func TestMigratePageMovesData(t *testing.T) {
	a, _ := New(testConfig())
	if _, err := a.ensureMapped(3); err != nil {
		t.Fatal(err)
	}
	src, _ := a.FTL().Lookup(3)
	dst := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 1}, FIMM: 0}
	if src.FIMMID() == dst {
		t.Fatal("test picked the source FIMM")
	}
	var migErr error
	doneAt := simx.Time(-1)
	a.MigratePage(3, dst, false, migratedFunc(func(err error) { migErr = err; doneAt = a.Engine().Now() }))
	a.Engine().Run()
	if migErr != nil {
		t.Fatalf("migration: %v", migErr)
	}
	if doneAt <= 0 {
		t.Error("migration completed instantly")
	}
	if got := a.FTL().ResidentFIMM(3); got != dst {
		t.Errorf("resident = %v, want %v", got, dst)
	}
	if a.Migrations() != 1 {
		t.Errorf("Migrations = %d", a.Migrations())
	}
	if a.FTL().Stats().MigrationWrites != 1 {
		t.Errorf("MigrationWrites = %d", a.FTL().Stats().MigrationWrites)
	}
	// The destination page is readable end to end.
	rec, err := a.Run([]trace.Request{{Arrival: 0, Op: trace.Read, LPN: 3, Pages: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 1 {
		t.Error("post-migration read failed")
	}
}

func TestShadowCloningFasterThanNaive(t *testing.T) {
	measure := func(shadow bool) simx.Time {
		a, _ := New(testConfig())
		if _, err := a.ensureMapped(3); err != nil {
			t.Fatal(err)
		}
		dst := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 1}, FIMM: 0}
		start := a.Engine().Now()
		var end simx.Time
		a.MigratePage(3, dst, shadow, migratedFunc(func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			end = a.Engine().Now()
		}))
		a.Engine().Run()
		return end - start
	}
	naive, shadow := measure(false), measure(true)
	if shadow >= naive {
		t.Errorf("shadow cloning (%v) not faster than naive migration (%v)", shadow, naive)
	}
	// The saving is the device read: at least tR.
	if naive-shadow < DefaultConfig().Geometry.Nand.TRead {
		t.Errorf("shadow saving %v below tR", naive-shadow)
	}
}

func TestMigrateSameFIMMNoOp(t *testing.T) {
	a, _ := New(testConfig())
	if _, err := a.ensureMapped(0); err != nil {
		t.Fatal(err)
	}
	src, _ := a.FTL().Lookup(0)
	called := false
	a.MigratePage(0, src.FIMMID(), true, migratedFunc(func(err error) {
		called = true
		if err != nil {
			t.Errorf("no-op migration errored: %v", err)
		}
	}))
	if !called {
		t.Error("no-op migration did not complete synchronously")
	}
	if a.Migrations() != 0 {
		t.Error("no-op migration counted")
	}
}

// TestMigrateUnmapped covers a never-written LPN and both LPNs just
// outside the array: each reports ErrUnmapped, synchronously.
func TestMigrateUnmapped(t *testing.T) {
	a, _ := New(testConfig())
	total := a.Config().Geometry.TotalPages().Int64()
	for _, lpn := range []int64{7, -1, total} {
		var got error
		a.MigratePage(lpn, topo.FIMMID{}, true, migratedFunc(func(err error) { got = err }))
		if !errors.Is(got, ErrUnmapped) {
			t.Errorf("MigratePage(%d) err = %v, want ErrUnmapped", lpn, got)
		}
	}
}

// TestMigratePageReportsFailures drives the MigratePage reports no
// other test reaches. Each row must call done exactly once with its
// error, then the array must drain (Run's drain checks count every
// move that never reported) with every pooled object returned, and
// stay consistent.
func TestMigratePageReportsFailures(t *testing.T) {
	dst := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 1}, FIMM: 0}
	cases := []struct {
		name  string
		want  string
		start func(a *Array, src topo.PPN, done Migrated)
	}{
		{"unplaceable destination", "unplaceable", func(a *Array, _ topo.PPN, done Migrated) {
			a.ArmFaults()
			a.Health().SetCluster(dst.ClusterID, topo.ClusterDegraded)
			a.MigratePage(3, dst, false, done)
		}},
		{"source read fails", "migration read", func(a *Array, src topo.PPN, done Migrated) {
			a.Endpoint(src.ClusterID()).FIMM(src.FIMMSlot()).Kill()
			a.MigratePage(3, dst, false, done)
		}},
		{"allocation fails", "migration allocation", func(a *Array, _ topo.PPN, done Migrated) {
			a.MigratePage(3, dst, false, done)
			a.FTL().DropMapping(3) // dropped during the source read
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, err := New(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.ensureMapped(3); err != nil {
				t.Fatal(err)
			}
			src, _ := a.FTL().Lookup(3)
			if src.FIMMID() == dst {
				t.Fatal("test picked the source FIMM")
			}
			snap := simx.SnapshotLedger()
			var errs []error
			c.start(a, src, migratedFunc(func(err error) { errs = append(errs, err) }))
			if _, err := a.Run(nil); err != nil {
				t.Fatal(err)
			}
			if len(errs) != 1 || errs[0] == nil || !strings.Contains(errs[0].Error(), c.want) {
				t.Fatalf("done called with %v, want once with an error containing %q", errs, c.want)
			}
			if err := simx.AssertDrained(snap); err != nil {
				t.Error(err)
			}
			if err := a.CheckConsistency(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCrossSwitchMigrationViaRC(t *testing.T) {
	a, _ := New(testConfig())
	if _, err := a.ensureMapped(0); err != nil { // home: sw0/cl0
		t.Fatal(err)
	}
	dst := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 1, Cluster: 0}, FIMM: 0}
	var migErr error
	a.MigratePage(0, dst, true, migratedFunc(func(err error) { migErr = err }))
	a.Engine().Run()
	if migErr != nil {
		t.Fatalf("cross-switch migration: %v", migErr)
	}
	if got := a.FTL().ResidentFIMM(0); got != dst {
		t.Errorf("resident = %v", got)
	}
}

func TestGCTriggersUnderOverwrites(t *testing.T) {
	cfg := testConfig()
	cfg.Geometry.Nand.BlocksPerPlane = 8
	cfg.GCThreshold = 6 // pressure well before exhaustion
	a, _ := New(cfg)
	// Overwrite a handful of LPNs on one FIMM at a rate GC can follow
	// (erases take 3 ms in this geometry).
	var reqs []trace.Request
	gap := simx.Time(0)
	for round := 0; round < 20; round++ {
		for lpn := int64(0); lpn < 4; lpn++ {
			reqs = append(reqs, trace.Request{Arrival: gap, Op: trace.Write, LPN: lpn, Pages: 1})
			gap += simx.Millisecond
		}
	}
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if a.GCRounds() == 0 {
		t.Error("GC never ran under heavy overwrites")
	}
	if a.FTL().Stats().GCErases == 0 {
		t.Error("no GC erases recorded")
	}
	if a.FTL().TotalErases() == 0 {
		t.Error("no wear recorded")
	}
}

func TestRunRejectsLeftoverInFlight(t *testing.T) {
	// Sanity: Run drains fully on a mixed trace.
	a, _ := New(testConfig())
	var reqs []trace.Request
	for i := 0; i < 50; i++ {
		op := trace.Read
		if i%3 == 0 {
			op = trace.Write
		}
		reqs = append(reqs, trace.Request{Arrival: simx.Time(i) * 10 * simx.Microsecond,
			Op: op, LPN: int64(i % 20), Pages: 1})
	}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 50 {
		t.Errorf("completed %d of 50", rec.Count())
	}
	if a.InFlight() != 0 {
		t.Errorf("InFlight = %d", a.InFlight())
	}
}

func TestArrayAccessors(t *testing.T) {
	cfg := testConfig()
	a, _ := New(cfg)
	if a.Recorder() == nil || a.Switch(0) == nil || a.RootComplex() == nil {
		t.Error("nil accessors")
	}
	if a.ReadRetries() != 0 {
		t.Errorf("fresh ReadRetries = %d", a.ReadRetries())
	}
	if got := cfg.BusPageTime(); got <= 0 {
		t.Errorf("BusPageTime = %v", got)
	}
	// SetHooks is exercised via core.Attach; here just verify wiring.
	a.SetHooks(nil)
}

func TestGCRaceRetry(t *testing.T) {
	// Force the retry path directly: map an LPN, submit its read, then
	// remap + erase the old block before the packet reaches the device.
	cfg := testConfig()
	a, _ := New(cfg)
	if _, err := a.ensureMapped(0); err != nil {
		t.Fatal(err)
	}
	old, _ := a.FTL().Lookup(0)
	a.Submit(trace.Request{Op: trace.Read, LPN: 0, Pages: 1})
	// While the packet is in flight, move the page and erase its block
	// (zero-time, as the emergency GC path would).
	wa, err := a.FTL().Relocate(0, topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a.markStaleDevice(wa.Old)
	if err := a.pkgAt(wa.New).ForcePopulate(wa.New.NandAddr(&cfg.Geometry)); err != nil {
		t.Fatal(err)
	}
	if err := a.pkgAt(old).ForceErase(old.NandAddr(&cfg.Geometry)); err != nil {
		t.Fatal(err)
	}
	a.Engine().Run()
	if a.InFlight() != 0 {
		t.Fatalf("request stuck after GC race")
	}
	if a.ReadRetries() == 0 {
		t.Error("retry path not taken")
	}
	if a.Recorder().Count() != 1 {
		t.Error("request not recorded")
	}
}

func TestStripedLayoutEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.Layout = ftl.LayoutStriped
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []trace.Request
	for i := 0; i < 32; i++ {
		op := trace.Read
		if i%4 == 0 {
			op = trace.Write
		}
		reqs = append(reqs, trace.Request{
			Arrival: simx.Time(i) * 50 * simx.Microsecond, Op: op, LPN: int64(i), Pages: 1,
		})
	}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 32 {
		t.Fatalf("completed %d", rec.Count())
	}
	// Consecutive LPNs land on different FIMMs under striping.
	f0 := a.FTL().ResidentFIMM(1)
	f1 := a.FTL().ResidentFIMM(2)
	if f0 == f1 {
		t.Errorf("striped layout put consecutive LPNs on one FIMM: %v", f0)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPageGeneratedWorkload(t *testing.T) {
	cfg := testConfig()
	a, _ := New(cfg)
	p := workload.MicroRead(1, 400, 50_000)
	p.PagesPer = 4
	p.Footprint = 64
	reqs, _, err := workload.Generate(cfg.Geometry, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 400 {
		t.Fatalf("completed %d", rec.Count())
	}
	for _, r := range rec.Records() {
		if r.Pages != 4 {
			t.Fatalf("request with %d pages", r.Pages)
		}
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
