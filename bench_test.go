// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per table/figure), ablation benchmarks for
// the design choices DESIGN.md calls out, and microbenchmarks of the
// substrate hot paths. Long experiment benchmarks naturally run with
// b.N == 1 and print their tables; repeated iterations reuse the shared
// suite's cache.
package triplea

import (
	"runtime"
	"sync"
	"testing"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/experiments"
	"triplea/internal/ftl"
	"triplea/internal/metrics"
	"triplea/internal/report"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/workload"
)

// benchRequests bounds per-run request counts so the full -bench=.
// sweep finishes in minutes; cmd/triplea-bench runs the full-length
// versions.
const benchRequests = 30_000

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func sharedSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		suite = experiments.NewSuite()
		suite.Requests = benchRequests
	})
	return suite
}

func logTable(b *testing.B, t *report.Table) {
	b.Helper()
	b.Log("\n" + t.String())
}

func BenchmarkFig01HotRegionCDF(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	var res *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, tbl, err = s.Fig1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LinkFactor, "linkDegrX")
	b.ReportMetric(res.StoreFactor, "storDegrX")
	logTable(b, tbl)
}

func BenchmarkTable01Workloads(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkTable02Baseline(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig09Normalized(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Aggregate gains across the congested workloads (paper: ~5x
	// latency, ~2x IOPS on average).
	var latSum, iopsSum float64
	n := 0
	for _, name := range experiments.WorkloadNames() {
		r, err := s.Workload(name)
		if err != nil {
			b.Fatal(err)
		}
		if r.Profile.HotClusters == 0 {
			continue
		}
		latSum += 1 / r.NormLatency()
		iopsSum += r.NormIOPS()
		n++
	}
	b.ReportMetric(latSum/float64(n), "meanLatGainX")
	b.ReportMetric(iopsSum/float64(n), "meanIOPSGainX")
	logTable(b, tbl)
}

func BenchmarkFig10Contention(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig11CDF(b *testing.B) {
	s := sharedSuite()
	var tables []*report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = s.Fig11()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, t := range tables {
		logTable(b, t)
	}
}

func BenchmarkFig12HotClusterSweep(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig12()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig13NetworkSweep(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig13()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig14ContentionSweep(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig14()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig15Breakdown(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.Fig15()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkFig16MigrationModes(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	var res *experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		var err error
		res, tbl, err = s.Fig16()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AvgUS[1]/res.AvgUS[2], "naiveOverShadowX")
	logTable(b, tbl)
}

func BenchmarkWearOverhead(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	var w experiments.WearResult
	for i := 0; i < b.N; i++ {
		var err error
		w, tbl, err = s.Wear()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(w.ExtraWriteFrac*100, "extraWrites%")
	b.ReportMetric(w.LifetimeLoss*100, "lifetimeLoss%")
	logTable(b, tbl)
}

func BenchmarkDRAMRelocation(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.DRAMStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

// BenchmarkDegradedFIMMRecovery measures how much of the performance an
// 8x-degraded FIMM costs is recovered by laggard reshaping.
func BenchmarkDegradedFIMMRecovery(b *testing.B) {
	slow := topo.FIMMID{ClusterID: topo.ClusterID{Switch: 0, Cluster: 0}, FIMM: 0}
	p := workload.MicroRead(1, 20_000, 40_000)
	p.HotIORatio = 0.8
	p.Footprint = 512
	cfg := array.DefaultConfig()
	cfg.DegradedFIMMs = map[topo.FIMMID]float64{slow: 8}
	reqs, _, err := workload.Generate(cfg.Geometry, p, 5)
	if err != nil {
		b.Fatal(err)
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		base, err := runArray(cfg, reqs, nil)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultOptions()
		auto, err := runArray(cfg, reqs, &opts)
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(base) / float64(auto)
	}
	b.ReportMetric(gain, "latGainX")
}

// BenchmarkOpportunisticGC compares eager and idle-window GC scheduling
// on an overwrite-heavy small-block configuration (tail latency is the
// interesting output).
func BenchmarkOpportunisticGC(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"eager", false}, {"opportunistic", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := array.DefaultConfig()
			cfg.Geometry.Switches = 2
			cfg.Geometry.ClustersPerSwitch = 8
			cfg.Geometry.Nand.BlocksPerPlane = 8
			cfg.Geometry.Nand.PagesPerBlock = 16
			cfg.GCThreshold = 4
			cfg.OpportunisticGC = mode.on
			p := workload.MicroWrite(2, 16_000, 120_000)
			p.ReadRatio = 0.5
			p.Footprint = 256
			reqs, _, err := workload.Generate(cfg.Geometry, p, 9)
			if err != nil {
				b.Fatal(err)
			}
			var p99 simx.Time
			var deferrals uint64
			for i := 0; i < b.N; i++ {
				a, err := array.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rec, err := a.Run(reqs)
				if err != nil {
					b.Fatal(err)
				}
				p99 = rec.Percentile(99)
				deferrals = a.GCDeferrals()
			}
			b.ReportMetric(p99.Micros(), "p99us")
			b.ReportMetric(float64(deferrals), "deferrals")
		})
	}
}

func BenchmarkCostStudy(b *testing.B) {
	s := sharedSuite()
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = s.CostStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

// --- Ablation benchmarks: turn off one design element at a time and
// measure the fin workload's normalized latency (lower = better).

func benchAblation(b *testing.B, mutate func(*core.Options)) {
	cfg := array.DefaultConfig()
	p, _ := workload.ProfileByName("fin")
	p.Requests = benchRequests
	reqs, _, err := workload.Generate(cfg.Geometry, p, 42)
	if err != nil {
		b.Fatal(err)
	}
	var norm float64
	for i := 0; i < b.N; i++ {
		base, err := runArray(cfg, reqs, nil)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultOptions()
		mutate(&opts)
		auto, err := runArray(cfg, reqs, &opts)
		if err != nil {
			b.Fatal(err)
		}
		norm = float64(auto) / float64(base)
	}
	b.ReportMetric(norm, "normLat")
	b.ReportMetric(1/norm, "latGainX")
}

func runArray(cfg array.Config, reqs []trace.Request, opts *core.Options) (simx.Time, error) {
	a, err := array.New(cfg)
	if err != nil {
		return 0, err
	}
	if opts != nil {
		core.Attach(a, *opts)
	}
	rec, err := a.Run(reqs)
	if err != nil {
		return 0, err
	}
	return rec.AvgLatency(), nil
}

func BenchmarkAblationFullTripleA(b *testing.B) {
	benchAblation(b, func(o *core.Options) {})
}

func BenchmarkAblationNoShadowCloning(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.ShadowCloning = false })
}

func BenchmarkAblationNoLinkManagement(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.LinkManagement = false })
}

func BenchmarkAblationNoStorageManagement(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.StorageManagement = false })
}

func BenchmarkAblationQueueExamination(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.Strategy = core.QueueExamination })
}

// BenchmarkAblationStripedLayout measures the static alternative to
// autonomic reshaping: page-striping the whole address space avoids hot
// clusters by construction (at the price of giving up locality
// control). Reported as the striped BASELINE's latency normalized to
// the clustered baseline.
func BenchmarkAblationStripedLayout(b *testing.B) {
	p, _ := workload.ProfileByName("fin")
	p.Requests = benchRequests
	clustered := array.DefaultConfig()
	striped := array.DefaultConfig()
	striped.Layout = ftl.LayoutStriped
	reqs, _, err := workload.Generate(clustered.Geometry, p, 42)
	if err != nil {
		b.Fatal(err)
	}
	var norm float64
	for i := 0; i < b.N; i++ {
		base, err := runArray(clustered, reqs, nil)
		if err != nil {
			b.Fatal(err)
		}
		alt, err := runArray(striped, reqs, nil)
		if err != nil {
			b.Fatal(err)
		}
		norm = float64(alt) / float64(base)
	}
	b.ReportMetric(norm, "normLat")
}

// BenchmarkHostPriorityScheduling compares endpoint FIFO vs
// host-priority read scheduling under Triple-A (whose migration reads
// compete with host reads).
func BenchmarkHostPriorityScheduling(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"fifo", false}, {"host-priority", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := array.DefaultConfig()
			cfg.HostPriority = mode.on
			p := workload.MicroRead(3, benchRequests/2, 170_000)
			reqs, _, err := workload.Generate(cfg.Geometry, p, 21)
			if err != nil {
				b.Fatal(err)
			}
			var avg simx.Time
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				// Naive migration mode: background reads actually
				// compete with host reads for FIMM slots.
				opts.ShadowCloning = false
				lat, err := runArray(cfg, reqs, &opts)
				if err != nil {
					b.Fatal(err)
				}
				avg = lat
			}
			b.ReportMetric(avg.Micros(), "avgus")
		})
	}
}

// --- Sweep-pool wall-clock benchmarks (BENCH_PR6.json, `make
// sweep-smoke`). Deliberately named outside the Benchmark(Table|Fig)
// pattern so the PR3 allocation gate ignores them: a fresh suite per
// iteration defeats the memo cache on purpose, measuring the 16-point
// Fig12 sweep end to end. Serial vs parallel differ only in Parallel,
// so their ratio is the pool speedup (~1x on 1 CPU, >=2x on the
// 4-core CI runner).

func benchSweepFig12(b *testing.B, parallel int) {
	var tbl *report.Table
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		s.Requests = 4000
		s.Fig12Points = 16
		s.Parallel = parallel
		var err error
		tbl, err = s.Fig12()
		if err != nil {
			b.Fatal(err)
		}
	}
	logTable(b, tbl)
}

func BenchmarkSweepFig12x16Serial(b *testing.B) {
	benchSweepFig12(b, 1)
}

func BenchmarkSweepFig12x16Parallel(b *testing.B) {
	benchSweepFig12(b, runtime.GOMAXPROCS(0))
}

// --- Substrate microbenchmarks.

func BenchmarkPPNPackUnpack(b *testing.B) {
	b.ReportAllocs()
	var acc int
	for i := 0; i < b.N; i++ {
		p := topo.PackPPN(i&3, i&15, i&3, i&7, i&1, i&1023, i&255)
		acc += p.Block() + p.Page()
	}
	_ = acc
}

func BenchmarkArraySingleRead(b *testing.B) {
	cfg := array.DefaultConfig()
	a, err := array.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Submit(trace.Request{Op: trace.Read, LPN: int64(i % 100000), Pages: 1})
		a.Engine().Run()
	}
}

// synthRecords feeds a recorder `requests` synthetic completions from a
// seeded stream: a bursty submit clock and latencies spanning several
// histogram octaves (~1µs .. ~16ms), so the streaming backend's
// log-spaced buckets, windowed tracker and reservoir all see realistic
// churn.
func synthRecords(rec *metrics.Recorder, requests int) {
	rng := simx.NewRNG(42)
	var clock simx.Time
	for i := 0; i < requests; i++ {
		clock += simx.Time(rng.Intn(2000)) * simx.Nanosecond
		lat := simx.Time(2000+rng.Intn(1<<uint(10+rng.Intn(14)))) * simx.Nanosecond
		kind := metrics.Read
		if rng.Bool(0.3) {
			kind = metrics.Write
		}
		rec.Record(metrics.Record{
			ID:       uint64(i),
			Kind:     kind,
			Pages:    1,
			Submit:   clock,
			Complete: clock + lat,
			Breakdown: metrics.Breakdown{
				Texe:     lat / 2,
				LinkWait: lat / 4,
			},
		})
	}
}

// benchmarkRecorderBytes measures one backend's steady-state metric
// footprint at a given run length, reported as recorder-bytes/op for
// the metrics-smoke flatness gate (docs/metrics.md).
func benchmarkRecorderBytes(b *testing.B, backend metrics.Backend, requests int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := metrics.NewRecorderWith(backend, 0)
		synthRecords(rec, requests)
		if rec.Count() != requests {
			b.Fatalf("recorded %d of %d", rec.Count(), requests)
		}
		b.ReportMetric(float64(rec.FootprintBytes()), "recorder-bytes/op")
	}
}

// The streaming pair is the O(1) evidence: 10x the requests, flat
// bytes. The exact run rides along for contrast in BENCH_PR8.json.
func BenchmarkRecorderStreaming100k(b *testing.B) {
	benchmarkRecorderBytes(b, metrics.Streaming, 100_000)
}

func BenchmarkRecorderStreaming1M(b *testing.B) {
	benchmarkRecorderBytes(b, metrics.Streaming, 1_000_000)
}

func BenchmarkRecorderExact100k(b *testing.B) {
	benchmarkRecorderBytes(b, metrics.Exact, 100_000)
}
