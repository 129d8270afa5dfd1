package array_test

import (
	"runtime"
	"testing"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/fault"
	"triplea/internal/metrics"
	"triplea/internal/trace"
	"triplea/internal/units"
	"triplea/internal/workload"
)

// allocScenario is one row of the steady-state allocation pin table: a
// warm array serving a seeded workload shaped like one of the
// repository benchmark's workloads.
type allocScenario struct {
	name     string
	cfg      array.Config
	profile  workload.Profile
	manager  bool    // attach core.Manager (Triple-A)
	faults   bool    // arm fault.ReferencePlan with recovery
	measured float64 // allocations per request, default build, seed 42
	events   uint64  // events the whole run fires, seed 42
}

const (
	allocSeed     = 42
	allocWarmup   = 20_000 // requests served before measuring
	allocMeasured = 20_000 // requests measured
	// allocHeadroom is the slack above each measured figure: wide enough
	// for map-growth jitter between runs and builds (the simcheck build
	// measures up to 0.02 higher), narrow enough that one more
	// allocation per request fails the pin.
	allocHeadroom = 0.25
)

// allocScenarios mirrors the benchmark workloads on reduced arrays:
// paper-suite as baseline and Triple-A runs on a 2x4 array, gc-overwrite
// on its tiny-block 2x8 geometry, and fault-recovery with its reference
// plan. Every row records with the Streaming backend, whose per-request
// path is itself pinned at zero allocations in internal/metrics.
func allocScenarios() []allocScenario {
	small := array.DefaultConfig()
	small.Geometry.Switches = 2
	small.Geometry.ClustersPerSwitch = 4
	small.Metrics = metrics.Streaming

	gc, overwrite := gcOverwriteShape()

	hotRead := workload.MicroRead(2, 0, 0)
	hotRead.RateIOPS = 40_000 * 2 / hotRead.HotIORatio
	mixed := hotRead
	mixed.ReadRatio = 0.6
	mixed.WriteRandomness = 1

	// The event pins count one event per fabric hop: a packet's
	// delivery, which also waits out a switch's or the RC's routing
	// latency.
	return []allocScenario{
		{name: "baseline-read", cfg: small, profile: workload.MicroRead(0, 0, 150_000), measured: 0.02, events: 360_000},
		{name: "baseline-write", cfg: small, profile: workload.MicroWrite(0, 0, 150_000), measured: 0.03, events: 320_000},
		{name: "triplea-read", cfg: small, profile: hotRead, manager: true, measured: 0.34, events: 410_878},
		{name: "gc-overwrite", cfg: gc, profile: overwrite, measured: 0.22, events: 414_456},
		{name: "fault-recovery", cfg: small, profile: mixed, manager: true, faults: true, measured: 0.34, events: 388_759},
	}
}

// gcOverwriteShape is the benchmark's gc-overwrite array and load: a
// tiny-block 2x8 geometry under a 50/50 read/overwrite mix over 2048
// pages per cluster.
func gcOverwriteShape() (array.Config, workload.Profile) {
	cfg := array.DefaultConfig()
	cfg.Geometry.Switches = 2
	cfg.Geometry.ClustersPerSwitch = 8
	cfg.Geometry.Nand.BlocksPerPlane = 8
	cfg.Geometry.Nand.PagesPerBlock = 16
	cfg.GCThreshold = 4 * units.Block
	cfg.Metrics = metrics.Streaming
	p := workload.MicroWrite(0, 0, 40_000)
	p.ReadRatio = 0.5
	p.Footprint = 2048 * units.Page
	return cfg, p
}

// TestSteadyStateAllocs pins the heap allocations per request of the
// warm simulator on each scenario. Once the event, waiter, packet,
// command, request and page-ref pools are warm, what remains is
// amortised growth in maps and slices and the background work a
// scenario drives (GC planning, one record per migration, fault
// recovery). Each pin is the measured figure plus allocHeadroom, so
// one new allocation per request on any layer a scenario crosses fails
// it. A pin moves only with a measured, explained change; never widen
// one to make a test pass.
//
// The same run pins the schedule: the number of events it fires is
// exact, so a change that adds or removes an event anywhere fails here
// until the pin moves with a stated reason.
func TestSteadyStateAllocs(t *testing.T) {
	for _, sc := range allocScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			got, fired := steadyStateAllocs(t, sc)
			pin := sc.measured + allocHeadroom
			t.Logf("%.2f allocs/request (measured %.2f, pin %.2f), %d events", got, sc.measured, pin, fired)
			if got > pin {
				t.Errorf("%.2f allocations per request, pinned at %.2f: "+
					"a hot-path object stopped being pooled or a per-call allocation was added", got, pin)
			}
			if fired != sc.events {
				t.Errorf("the run fired %d events, pinned at %d: the schedule changed", fired, sc.events)
			}
		})
	}
}

// steadyStateAllocs serves the scenario's first allocWarmup requests,
// then reports the mean heap allocations per request over the next
// allocMeasured, and the events the whole run fired. The trace is one
// continuous run, fed the way Array.Run feeds it, so arrivals, fault
// events and background work keep their natural timing across the
// measuring boundary.
func steadyStateAllocs(t *testing.T, sc allocScenario) (float64, uint64) {
	t.Helper()
	p := sc.profile
	p.Requests = allocWarmup + allocMeasured
	reqs, _, err := workload.Generate(sc.cfg.Geometry, p, allocSeed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := array.New(sc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc.manager {
		core.Attach(a, core.DefaultOptions())
	}
	if sc.faults {
		fault.Attach(a, fault.ReferencePlan(sc.cfg.Geometry, reqs[len(reqs)-1].Arrival), fault.Options{Recover: true})
	}
	if err := a.Prepare(reqs); err != nil {
		t.Fatal(err)
	}
	f := &feeder{a: a, reqs: reqs}
	f.schedule(0)
	eng := a.Engine()
	eng.RunUntil(reqs[allocWarmup].Arrival - 1)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng.Run()
	runtime.ReadMemStats(&after)

	if n := a.Recorder().Count() + a.Recorder().FailedCount(); n != len(reqs) {
		t.Fatalf("%d of %d requests finished", n, len(reqs))
	}
	return float64(after.Mallocs-before.Mallocs) / allocMeasured, eng.Fired()
}

// feeder submits trace requests at their arrival times, one pooled
// event per arrival, as Array.Run's own feeder does.
type feeder struct {
	a    *array.Array
	reqs []trace.Request
}

func (f *feeder) schedule(i int) {
	if i >= len(f.reqs) {
		return
	}
	eng := f.a.Engine()
	eng.AtEvent(max(f.reqs[i].Arrival, eng.Now()), f, uint64(i))
}

// OnEvent implements simx.Handler: request arg arrives.
func (f *feeder) OnEvent(arg uint64) {
	f.a.Submit(f.reqs[arg])
	f.schedule(int(arg) + 1)
}

// setupScenario is one row of the set-up allocation pin table.
type setupScenario struct {
	name     string
	cfg      array.Config
	profile  workload.Profile
	measured float64 // allocations per request, default build
}

// setupScenarios are two of the benchmark's per-run set-ups: the
// gc-overwrite array with its trace, and one paper-suite array (the cfs
// profile on the full 4x16 default array, Exact metrics).
func setupScenarios() []setupScenario {
	gc, overwrite := gcOverwriteShape()
	overwrite.Requests = 20_000
	cfs, _ := workload.ProfileByName("cfs")
	cfs.Requests = 15_000
	paper := array.DefaultConfig()
	paper.Metrics = metrics.Exact
	return []setupScenario{
		{name: "gc-overwrite", cfg: gc, profile: overwrite, measured: 0.20},
		{name: "paper-cfs", cfg: paper, profile: cfs, measured: 0.57},
	}
}

// TestSetupAllocs pins the heap allocations per request of per-run
// set-up: workload.Generate, array.New and Prepare, which installs the
// read footprint. The steady-state pins above never see this phase.
// Each pin is the measured figure plus allocHeadroom, so one more
// allocation per generated request fails it. A pin moves only with a
// measured, explained change.
func TestSetupAllocs(t *testing.T) {
	for _, sc := range setupScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			reqs, _, err := workload.Generate(sc.cfg.Geometry, sc.profile, allocSeed)
			if err != nil {
				t.Fatal(err)
			}
			a, err := array.New(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Prepare(reqs); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got := float64(after.Mallocs-before.Mallocs) / float64(len(reqs))
			pin := sc.measured + allocHeadroom
			t.Logf("%.2f allocs/request over %d requests (measured %.2f, pin %.2f)", got, len(reqs), sc.measured, pin)
			if got > pin {
				t.Errorf("%.2f set-up allocations per request, pinned at %.2f: "+
					"trace generation, array construction or Prepare allocates more per request", got, pin)
			}
		})
	}
}

// newScenario is one row of the construction allocation pin table.
type newScenario struct {
	name     string
	cfg      array.Config
	measured uint64 // allocations of one array.New, default build
}

// newScenarios are the arrays the benchmark builds most often: the
// default 4x16 array every paper-suite run constructs.
func newScenarios() []newScenario {
	return []newScenario{
		{name: "4x16", cfg: array.DefaultConfig(), measured: 1_381},
	}
}

// TestNewAllocs pins the heap allocations of array.New. Device state
// lives in slabs (dies, resources and packages by value, block state
// allocated on first touch), so construction costs a few objects per
// FIMM and cluster, not one per die or resource. The pin is the
// measured figure plus a tenth of it for build jitter; one more object
// per die, package or FIMM fails it.
func TestNewAllocs(t *testing.T) {
	for _, sc := range newScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			a, err := array.New(sc.cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(a)
			got := after.Mallocs - before.Mallocs
			pin := sc.measured + sc.measured/10
			t.Logf("%d allocations (measured %d, pin %d)", got, sc.measured, pin)
			if got > pin {
				t.Errorf("array.New made %d allocations, pinned at %d: "+
					"construction allocates per die, package or resource again", got, pin)
			}
		})
	}
}

// sparseHeapLimit bounds the live heap the sparse-footprint probe may
// hold after its run.
const sparseHeapLimit = 124 << 20

// TestSparseFootprintHeap runs 15,000 random single-page reads with no
// footprint bound (Footprint 0) on the default 4x16 array: every read
// lands on an isolated page of a block of its own. Device and FTL
// block state must cost memory per touched chunk, not per block up to
// the highest block touched, so the live heap after the run stays
// under sparseHeapLimit.
func TestSparseFootprintHeap(t *testing.T) {
	cfg := array.DefaultConfig()
	cfg.Metrics = metrics.Streaming
	p := workload.MicroRead(0, 15_000, 150_000)
	p.Footprint = 0
	reqs, _, err := workload.Generate(cfg.Geometry, p, allocSeed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := array.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Prepare(reqs); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(a)
	t.Logf("live heap after the run: %.1f MiB (limit %d MiB)", float64(ms.HeapAlloc)/(1<<20), sparseHeapLimit>>20)
	if ms.HeapAlloc > sparseHeapLimit {
		t.Errorf("live heap %.1f MiB exceeds %d MiB: block state grows with the highest block touched",
			float64(ms.HeapAlloc)/(1<<20), sparseHeapLimit>>20)
	}
}
