// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 6): each experiment builds the workloads,
// runs them on the non-autonomic baseline and on Triple-A, and reports
// the same rows and series the paper plots. EXPERIMENTS.md records
// paper-vs-measured for each one.
package experiments

import (
	"fmt"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/ftl"
	"triplea/internal/metrics"
	"triplea/internal/report"
	"triplea/internal/workload"
)

// SustainedWindow is the completion-rate window used for sustained
// throughput (matches the workload burst ON phase). It aliases the
// metrics default so the streaming backend's incremental tracker is
// built for exactly this window.
const SustainedWindow = metrics.DefaultSustainedWindow

// RunResult holds one workload executed on both arrays.
type RunResult struct {
	Profile workload.Profile
	Gen     workload.GenStats

	Base *metrics.Recorder // non-autonomic
	Auto *metrics.Recorder // Triple-A

	BaseFTL ftl.Stats
	AutoFTL ftl.Stats
	Manager core.Stats

	BaseGC, AutoGC            uint64
	BaseMigrations, AutoMoved uint64
	BaseErases, AutoErases    uint64
}

// NormLatency reports Triple-A latency normalized to the baseline
// (lower is better; the paper's Figure 9a).
func (r *RunResult) NormLatency() float64 {
	if r.Base.AvgLatency() == 0 {
		return 1
	}
	return float64(r.Auto.AvgLatency()) / float64(r.Base.AvgLatency())
}

// NormIOPS reports Triple-A sustained throughput normalized to the
// baseline (higher is better; the paper's Figure 9b).
func (r *RunResult) NormIOPS() float64 {
	b := r.Base.SustainedIOPS(SustainedWindow)
	if b <= 0 {
		return 1
	}
	return r.Auto.SustainedIOPS(SustainedWindow) / b
}

// Suite runs and caches experiment workloads for one configuration.
type Suite struct {
	Config   array.Config
	Options  core.Options
	Seed     uint64
	Requests int // if > 0, overrides every profile's request count

	// Parallel is the sweep-pool width for multi-point experiments
	// (Fig12, Fig13-15, the fault study). 0 or 1 runs serially; any
	// width produces byte-identical tables (internal/sweep reassembles
	// by spec index, and parallel_test.go pins the equivalence).
	Parallel int

	// Fig12Points overrides the hot-cluster sweep's point count
	// (default 6, the paper's range; the sweep benchmark uses 16).
	Fig12Points int

	cache     map[string]*RunResult
	tables    map[string]*report.Table
	fig1      *Fig1Result
	fig16     *Fig16Result
	wear      *WearResult
	netPoints []networkPoint
}

// NewSuite returns a suite on the paper's default configuration.
func NewSuite() *Suite {
	return &Suite{
		Config:  array.DefaultConfig(),
		Options: core.DefaultOptions(),
		Seed:    42,
		cache:   make(map[string]*RunResult),
		tables:  make(map[string]*report.Table),
	}
}

// memoTable caches rendered experiment tables: repeated calls (e.g.
// from escalating benchmark iterations) reuse the first run's result.
func (s *Suite) memoTable(key string, build func() (*report.Table, error)) (*report.Table, error) {
	if t, ok := s.tables[key]; ok {
		return t, nil
	}
	t, err := build()
	if err != nil {
		return nil, err
	}
	s.tables[key] = t
	return t, nil
}

// prepare applies suite-level overrides to a profile.
func (s *Suite) prepare(p workload.Profile) workload.Profile {
	if s.Requests > 0 {
		p.Requests = s.Requests
	}
	return p
}

// RunProfile executes a profile on the baseline and on Triple-A,
// exactly as given (suite-level request overrides are applied by
// Workload, not here, so sweeps can scale counts themselves). It
// delegates to runPair, the same code path sweep workers run, so the
// serial and parallel routes cannot diverge.
func (s *Suite) RunProfile(p workload.Profile) (*RunResult, error) {
	return runPair(s.Config, s.Options, s.Seed, p)
}

// Workload returns the cached pair run for a Table 1 workload.
func (s *Suite) Workload(name string) (*RunResult, error) {
	if r, ok := s.cache[name]; ok {
		return r, nil
	}
	p, ok := workload.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
	r, err := s.RunProfile(s.prepare(p))
	if err != nil {
		return nil, err
	}
	s.cache[name] = r
	return r, nil
}

// WorkloadNames lists the Table 1 suite in paper order.
func WorkloadNames() []string {
	names := make([]string, 0, 13)
	for _, p := range workload.Table1Profiles() {
		names = append(names, p.Name)
	}
	return names
}

// microProfile builds the `read` micro-benchmark with per-hot-cluster
// offered load at `overload` x the calibrated cluster capacity, so the
// hot-region pressure is comparable across hot-cluster counts. The
// request count scales with the rate so every sweep point simulates the
// same wall-clock duration (nominalRequests corresponds to 150K IOPS).
func microProfile(hot int, nominalRequests int, overload float64) workload.Profile {
	p := workload.MicroRead(hot, nominalRequests, 150_000)
	if hot > 0 {
		p.RateIOPS = overload * 40_000 * float64(hot) / p.HotIORatio
		p.Requests = int(float64(nominalRequests) * p.RateIOPS / 150_000)
	}
	return p
}
