// Benchmarks for profiling and for the design-choice studies: the
// Table 2 baseline run (the full-array profiling target), ablation and
// study benchmarks behind the numbers EXPERIMENTS.md quotes, and two
// substrate microbenchmarks. They are not a speed yardstick: perfbench/
// measures speed (docs/performance.md), and the allocation and
// footprint gates are deterministic tests (TestSteadyStateAllocs,
// TestStreamingFootprintFlat). cmd/triplea-bench renders every table
// and figure of the paper.
package triplea

import (
	"testing"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/experiments"
	"triplea/internal/ftl"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/workload"
)

// benchRequests bounds per-run request counts so each benchmark
// iteration finishes in seconds; cmd/triplea-bench runs the
// full-length versions.
const benchRequests = 30_000

// BenchmarkTable02Baseline runs Table 2 (all 13 workloads, baseline and
// Triple-A, full 4x16 array) on a fresh suite each iteration, so every
// iteration simulates from scratch and -count N repeats the full run.
// It is the CPU-profiling target for the whole-array event core:
//
//	go test -run '^$' -bench BenchmarkTable02Baseline -benchtime 1x -cpuprofile cpu.out .
func BenchmarkTable02Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		s.Requests = benchRequests
		if _, err := s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
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
