package main

import (
	"triplea/internal/array"
	"triplea/internal/metrics"
	"triplea/internal/units"
	"triplea/internal/workload"
)

// arraySpec is one simulated array a workload runs: its configuration,
// the profile its requests are generated from, and what is attached.
type arraySpec struct {
	Name    string
	Config  array.Config
	Profile workload.Profile
	// Manager attaches Triple-A (core.DefaultOptions); without it the
	// array is the non-autonomic baseline.
	Manager bool
	// Faults attaches fault.ReferencePlan with recovery on.
	Faults bool
	// Measured arrays feed the sim_* metrics. On paper-suite these are
	// the Triple-A arrays; the baselines only enter the gain metrics.
	Measured bool
}

// workloadDef is one benchmark workload: a list of arrays run one after
// the other in a single thread. BENCHMARK.json and README.md say why
// each was chosen.
type workloadDef struct {
	Name string
	// Requests is the per-array request count at full size.
	Requests int
	// Specs builds the arrays for a per-array request count.
	Specs func(requests int) []arraySpec
}

// Full-size request counts. Each keeps at least ten samples beyond the
// p99.99 latency of the arrays the sim_* metrics are taken from.
const (
	paperRequests = 15_000  // per profile and array: 13 x 2 arrays
	gcRequests    = 400_000 // one array
	faultRequests = 200_000 // one array
)

var workloads = []workloadDef{
	{
		Name:     "paper-suite",
		Requests: paperRequests,
		Specs:    paperSuite,
	},
	{
		Name:     "gc-overwrite",
		Requests: gcRequests,
		Specs:    gcOverwrite,
	},
	{
		Name:     "fault-recovery",
		Requests: faultRequests,
		Specs:    faultRecovery,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// paperSuite runs every Table 1 profile on the full 4x16 default array,
// first as the baseline and then with Triple-A attached, the same pair
// experiments.Suite.Workload runs.
func paperSuite(requests int) []arraySpec {
	cfg := array.DefaultConfig()
	cfg.Metrics = metrics.Exact
	var specs []arraySpec
	for _, p := range workload.Table1Profiles() {
		p.Requests = requests
		specs = append(specs,
			arraySpec{Name: p.Name + "/base", Config: cfg, Profile: p},
			arraySpec{Name: p.Name + "/3a", Config: cfg, Profile: p, Manager: true, Measured: true})
	}
	return specs
}

// gcOverwrite is a small-block 2x8 array with no manager under uniform
// random overwrites, sized so that garbage collection runs constantly
// but never runs out of free blocks.
func gcOverwrite(requests int) []arraySpec {
	cfg := array.DefaultConfig()
	cfg.Geometry.Switches = 2
	cfg.Geometry.ClustersPerSwitch = 8
	cfg.Geometry.Nand.BlocksPerPlane = 8
	cfg.Geometry.Nand.PagesPerBlock = 16
	cfg.GCThreshold = 4 * units.Block
	cfg.Metrics = metrics.Streaming
	p := workload.MicroWrite(0, requests, 40_000)
	p.Name = "gc-overwrite"
	p.ReadRatio = 0.5
	p.Footprint = 2048 * units.Page
	return []arraySpec{{Name: "gc", Config: cfg, Profile: p, Measured: true}}
}

// faultRecovery is the fault study's autonomic-on row on a 2x4 array:
// a 60/40 read/write mix on two hot clusters offered at their
// calibrated capacity, with the reference fault plan and recovery.
func faultRecovery(requests int) []arraySpec {
	cfg := array.DefaultConfig()
	cfg.Geometry.Switches = 2
	cfg.Geometry.ClustersPerSwitch = 4
	cfg.Metrics = metrics.Exact
	p := workload.MicroRead(2, requests, 0)
	p.Name = "fault-mixed"
	p.RateIOPS = 40_000 * 2 / p.HotIORatio
	p.ReadRatio = 0.6
	p.WriteRandomness = 1
	return []arraySpec{{Name: "fault", Config: cfg, Profile: p, Manager: true, Faults: true, Measured: true}}
}
