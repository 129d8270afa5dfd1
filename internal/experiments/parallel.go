package experiments

import (
	"fmt"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/fault"
	"triplea/internal/metrics"
	"triplea/internal/report"
	"triplea/internal/simx"
	"triplea/internal/sweep"
	"triplea/internal/trace"
	"triplea/internal/workload"
)

// This file is the bridge between the suite and the sweep pool
// (internal/sweep). Its isolation rules shape the code: every closure
// handed to sweep.Map captures only values (array.Config, core.Options,
// ints, seeds, and package vars no one writes, like NetworkSizes —
// never the *Suite itself), each point function builds its whole arena
// (workload, array, manager, recorder) inside the call, and results
// come back as plain values — metric snapshots and table rows, never
// live recorders — so the assembly side renders every row and the
// table is byte-identical for any worker count.
// TestParallelEquivalence checks all four sweep.Map sites (fig12,
// fig13, fault, regret) at widths 1, 2 and 8, and `make race` runs it
// under the race detector: a Fig 12 closure that bumped a captured
// counter into its seed failed both (seed I2 in
// docs/static-analysis.md).

// workers reports how many pool workers the suite's sweeps may use.
// Under -tags simcheck the leak ledger (simx.CheckActive) is
// process-global mutable state, so sweeps serialize regardless of
// Parallel.
func (s *Suite) workers() int {
	if s.Parallel <= 1 || simx.CheckActive() {
		return 1
	}
	return s.Parallel
}

// pairPoint is the value one pair-run sweep worker hands back: the
// baseline and Triple-A recorders frozen into snapshots, with sustained
// throughput pre-computed over the standard window.
type pairPoint struct {
	Base, Auto metrics.Snapshot
}

// pairSweepPoint runs a profile on the baseline and on Triple-A and
// freezes both recorders.
func pairSweepPoint(cfg array.Config, opts core.Options, seed uint64, p workload.Profile) (pairPoint, error) {
	r, err := runPair(cfg, opts, seed, p)
	if err != nil {
		return pairPoint{}, err
	}
	return pairPoint{
		Base: r.Base.Snapshot(SustainedWindow),
		Auto: r.Auto.Snapshot(SustainedWindow),
	}, nil
}

// NormLatency mirrors RunResult.NormLatency on snapshot values.
func (pp pairPoint) NormLatency() float64 {
	if pp.Base.AvgLatency == 0 {
		return 1
	}
	return float64(pp.Auto.AvgLatency) / float64(pp.Base.AvgLatency)
}

// NormIOPS mirrors RunResult.NormIOPS on snapshot values.
func (pp pairPoint) NormIOPS() float64 {
	if pp.Base.SustainedIOPS <= 0 {
		return 1
	}
	return pp.Auto.SustainedIOPS / pp.Base.SustainedIOPS
}

// runOnePoint generates a profile's trace and runs it on one array.
// Everything a sweep worker needs arrives as a value parameter.
func runOnePoint(cfg array.Config, seed uint64, p workload.Profile, opts *core.Options) (*metrics.Recorder, *array.Array, *core.Manager, error) {
	reqs, _, err := workload.Generate(cfg.Geometry, p, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	return runOn(cfg, p.Name, reqs, opts)
}

// runOn runs reqs on a fresh array, with a Triple-A manager attached
// when opts is non-nil. Array.Run leaves reqs as it found them, so
// several arrays may replay one trace.
func runOn(cfg array.Config, name string, reqs []trace.Request, opts *core.Options) (*metrics.Recorder, *array.Array, *core.Manager, error) {
	a, err := array.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var m *core.Manager
	if opts != nil {
		m = core.Attach(a, *opts)
	}
	rec, err := a.Run(reqs)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return rec, a, m, nil
}

// runPair executes a profile on the baseline and on Triple-A — the
// self-contained form of (*Suite).RunProfile, shared by the serial and
// parallel paths so they cannot diverge.
func runPair(cfg array.Config, opts core.Options, seed uint64, p workload.Profile) (*RunResult, error) {
	reqs, gen, err := workload.Generate(cfg.Geometry, p, seed)
	if err != nil {
		return nil, err
	}
	base, baseArr, _, err := runOn(cfg, p.Name, reqs, nil)
	if err != nil {
		return nil, err
	}
	auto, autoArr, mgr, err := runOn(cfg, p.Name, reqs, &opts)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Profile:        p,
		Gen:            gen,
		Base:           base,
		Auto:           auto,
		BaseFTL:        baseArr.FTL().Stats(),
		AutoFTL:        autoArr.FTL().Stats(),
		Manager:        mgr.Stats(),
		BaseGC:         baseArr.GCRounds(),
		AutoGC:         autoArr.GCRounds(),
		BaseMigrations: baseArr.Migrations(),
		AutoMoved:      autoArr.Migrations(),
		BaseErases:     baseArr.FTL().TotalErases(),
		AutoErases:     autoArr.FTL().TotalErases(),
	}, nil
}

// fig12Row renders one hot-cluster sweep point exactly as the serial
// Figure 12 loop always has, now from snapshot values.
func fig12Row(h int, pp pairPoint) []string {
	return []string{
		fmt.Sprintf("%d", h),
		report.FormatUS(int64(pp.Base.AvgLatency)),
		report.FormatCount(pp.Base.SustainedIOPS),
		report.FormatUS(int64(pp.Auto.AvgLatency)),
		report.FormatCount(pp.Auto.SustainedIOPS),
	}
}

func fig13Row(size int, pp pairPoint) []string {
	nl := pp.NormLatency()
	return []string{
		fmt.Sprintf("%d", size),
		fmt.Sprintf("%.3f", nl),
		fmt.Sprintf("%.1fx", 1/nl),
		fmt.Sprintf("%.2f", pp.NormIOPS()),
	}
}

func fig14Row(size int, pp pairPoint) []string {
	b, a := pp.Base.MeanBreakdown(), pp.Auto.MeanBreakdown()
	return []string{
		fmt.Sprintf("%d", size),
		norm(a.LinkContention(), b.LinkContention()),
		norm(a.StorageContention(), b.StorageContention()),
	}
}

func fig15Row(label string, mb metrics.Breakdown) []string {
	return []string{label,
		report.FormatUS(int64(mb.RCStall)),
		report.FormatUS(int64(mb.SwitchStall)),
		report.FormatUS(int64(mb.EPWait)),
		report.FormatUS(int64(mb.LinkWait)),
		report.FormatUS(int64(mb.StorageWait)),
		report.FormatUS(int64(mb.Texe)),
		report.FormatUS(int64(mb.LinkXfer)),
		report.FormatUS(int64(mb.FabricXfer)),
	}
}

// networkPoint carries the rendered rows one network-size run
// contributes to Figures 13, 14 and 15 (rendered on the assembly side
// from the worker's snapshot pair).
type networkPoint struct {
	fig13, fig14         []string
	fig15Base, fig15Auto []string
}

// networkPoints runs the micro-benchmark across network sizes through
// the sweep pool, caching the rendered rows (Figures 13-15 share the
// sweep, so the pair runs happen once regardless of which figure asks
// first). Workers return snapshot pairs; all rendering happens here.
func (s *Suite) networkPoints() ([]networkPoint, error) {
	if s.netPoints != nil {
		return s.netPoints, nil
	}
	requests := 40_000
	if s.Requests > 0 {
		requests = s.Requests
	}
	cfg, opts := s.Config, s.Options
	outs, err := sweep.Map(s.workers(), sweep.Indexed(len(NetworkSizes), s.Seed), func(sp sweep.Spec) (pairPoint, error) {
		c := cfg
		c.Geometry.ClustersPerSwitch = NetworkSizes[sp.Index]
		return pairSweepPoint(c, opts, sp.Seed, microProfile(4, requests, 1.5))
	})
	if err != nil {
		return nil, err
	}
	pts := make([]networkPoint, len(outs))
	for i, pp := range outs {
		size := NetworkSizes[i]
		pts[i] = networkPoint{
			fig13:     fig13Row(size, pp),
			fig14:     fig14Row(size, pp),
			fig15Base: fig15Row(fmt.Sprintf("base-4x%d", size), pp.Base.MeanBreakdown()),
			fig15Auto: fig15Row(fmt.Sprintf("3A-4x%d", size), pp.Auto.MeanBreakdown()),
		}
	}
	s.netPoints = pts
	return pts, nil
}

// faultPoint runs one row of the degraded-array study: the full
// arena — workload, fault plan, array, injector — is built inside the
// call, so two rows can run on different workers without sharing
// anything. The row crosses the worker boundary as a plain value;
// rendering happens on the assembly side.
func faultPoint(cfg array.Config, opts core.Options, seed uint64, requests int, autonomic bool) (FaultRow, error) {
	p := microProfile(2, 20_000, 1.0)
	p.Name = "fault-mixed"
	p.ReadRatio = 0.6
	p.WriteRandomness = 1
	if requests > 0 {
		p.Requests = requests
	}
	reqs, _, err := workload.Generate(cfg.Geometry, p, seed)
	if err != nil {
		return FaultRow{}, err
	}
	span := reqs[len(reqs)-1].Arrival
	plan := fault.ReferencePlan(cfg.Geometry, span)
	// Phase boundaries come from the plan itself: healthy until the FIMM
	// death, degraded until the replug, recovered after.
	tDeath := plan.Events[0].At
	tReplug := plan.Events[2].At

	name := "autonomic-off"
	if autonomic {
		name = "autonomic-on"
	}
	a, err := array.New(cfg)
	if err != nil {
		return FaultRow{}, err
	}
	if autonomic {
		core.Attach(a, opts)
	}
	inj := fault.Attach(a, plan, fault.Options{Recover: autonomic})
	rec, err := a.Run(reqs)
	if err != nil {
		return FaultRow{}, fmt.Errorf("experiments: fault study %s: %w", name, err)
	}
	fs := a.FaultStats()
	is := inj.Stats()
	row := FaultRow{
		Name:          name,
		AvailHealthy:  rec.Availability(0, tDeath),
		AvailDegraded: rec.Availability(tDeath, tReplug),
		AvailPost:     rec.Availability(tReplug, endOfRun),
		Failed:        fs.RequestsFailed,
		Remapped:      fs.ReadsRemapped,
		Redirected:    fs.WritesRedirected,
		Evacuated:     is.Evacuated,
		AvgLat:        rec.AvgLatency(),
	}
	for _, r := range is.Recoveries {
		row.TTR += r.TTR()
	}
	return row, nil
}
