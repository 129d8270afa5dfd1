package experiments

import (
	"fmt"

	"triplea/internal/core"
	"triplea/internal/metrics"
	"triplea/internal/report"
	"triplea/internal/simx"
	"triplea/internal/sweep"
	"triplea/internal/workload"
)

// Fig1 reproduces the motivation study: latency CDFs of the `read`
// micro-benchmark on the NON-autonomic array as the number of hot
// regions grows, plus the resulting link/storage-contention
// degradation factors (paper: 2.4x link, 6.5x storage).
type Fig1Result struct {
	HotCounts   []int
	CDFs        [][]metrics.CDFPoint // per hot count
	LinkFactor  float64              // contention at max hot / at min hot
	StoreFactor float64
}

// Fig1 runs the motivation experiment (cached after the first call).
func (s *Suite) Fig1() (*Fig1Result, *report.Table, error) {
	if s.fig1 != nil {
		return s.fig1, s.tables["fig1"], nil
	}
	hotCounts := []int{1, 2, 3, 4, 5}
	res := &Fig1Result{HotCounts: hotCounts}
	var first, last metrics.Breakdown
	requests := 40_000
	if s.Requests > 0 {
		requests = s.Requests
	}
	for i, h := range hotCounts {
		p := microProfile(h, requests, 1.5)
		rec, _, _, err := runOnePoint(s.Config, s.Seed, p, nil)
		if err != nil {
			return nil, nil, err
		}
		res.CDFs = append(res.CDFs, rec.CDF(10))
		mb := rec.MeanBreakdown()
		if i == 0 {
			first = mb
		}
		if i == len(hotCounts)-1 {
			last = mb
		}
	}
	if first.LinkContention() > 0 {
		res.LinkFactor = float64(last.LinkContention()) / float64(first.LinkContention())
	}
	if first.StorageContention() > 0 {
		res.StoreFactor = float64(last.StorageContention()) / float64(first.StorageContention())
	}

	t := report.CDFTable(
		fmt.Sprintf("Figure 1: baseline latency CDF vs hot regions (link degr %.1fx, storage degr %.1fx)",
			res.LinkFactor, res.StoreFactor),
		[]string{"CDF", "hot=1(us)", "hot=2(us)", "hot=3(us)", "hot=4(us)", "hot=5(us)"},
		res.CDFs)
	s.fig1, s.tables["fig1"] = res, t
	return res, t, nil
}

// Fig9 reports Triple-A's latency and sustained IOPS normalized to the
// non-autonomic array for every workload (paper: ~5x lower latency,
// ~2x IOPS on average; no gain for cfs/web).
func (s *Suite) Fig9() (*report.Table, error) {
	return s.memoTable("fig9", s.fig9)
}

func (s *Suite) fig9() (*report.Table, error) {
	t := report.NewTable("Figure 9: Triple-A normalized to non-autonomic array",
		"workload", "normLat", "latGain", "normIOPS", "IOPSbar")
	for _, name := range WorkloadNames() {
		r, err := s.Workload(name)
		if err != nil {
			return nil, err
		}
		nl, ni := r.NormLatency(), r.NormIOPS()
		gain := "-"
		if nl > 0 {
			gain = fmt.Sprintf("%.1fx", 1/nl)
		}
		t.AddRow(name,
			fmt.Sprintf("%.3f", nl),
			gain,
			fmt.Sprintf("%.2f", ni),
			report.Bar(ni, 3, 24),
		)
	}
	return t, nil
}

// Fig10 reports the normalized link-contention, storage-contention and
// queue-stall times (paper: link contention mostly eliminated, storage
// contention -15%, queue stall -85%).
func (s *Suite) Fig10() (*report.Table, error) {
	return s.memoTable("fig10", s.fig10)
}

func (s *Suite) fig10() (*report.Table, error) {
	t := report.NewTable("Figure 10: normalized contention and queue stall (Triple-A / baseline)",
		"workload", "linkCont", "storCont", "queueStall")
	for _, name := range WorkloadNames() {
		r, err := s.Workload(name)
		if err != nil {
			return nil, err
		}
		b, a := r.Base.MeanBreakdown(), r.Auto.MeanBreakdown()
		t.AddRow(name,
			norm(a.LinkContention(), b.LinkContention()),
			norm(a.StorageContention(), b.StorageContention()),
			norm(a.QueueStall(), b.QueueStall()),
		)
	}
	return t, nil
}

func norm(a, b simx.Time) string {
	// Sub-microsecond baselines are uncontended; a ratio over noise
	// would mislead.
	if b < simx.Microsecond {
		return "~"
	}
	return fmt.Sprintf("%.3f", float64(a)/float64(b))
}

// Fig11Workloads lists the six workloads whose CDFs the paper plots.
var Fig11Workloads = []string{"mds", "msnfs", "proj", "prxy", "websql", "g-eigen"}

// Fig11 reports latency CDFs (baseline vs Triple-A) for the six
// workloads, exposing the long tail the paper highlights.
func (s *Suite) Fig11() ([]*report.Table, error) {
	var out []*report.Table
	for _, name := range Fig11Workloads {
		r, err := s.Workload(name)
		if err != nil {
			return nil, err
		}
		t := report.CDFTable(fmt.Sprintf("Figure 11 (%s): latency CDF", name),
			[]string{"CDF", "baseline(us)", "triple-a(us)"},
			[][]metrics.CDFPoint{r.Base.CDF(10), r.Auto.CDF(10)})
		out = append(out, t)
	}
	return out, nil
}

// Fig12 sweeps the hot-cluster count on the `read` micro-benchmark for
// both arrays (paper: baseline latency worsens with hot clusters;
// Triple-A holds latency stable with better IOPS).
func (s *Suite) Fig12() (*report.Table, error) {
	return s.memoTable("fig12", s.fig12)
}

func (s *Suite) fig12() (*report.Table, error) {
	points := 6
	if s.Fig12Points > 0 {
		points = s.Fig12Points
	}
	requests := 40_000
	if s.Requests > 0 {
		requests = s.Requests
	}
	cfg, opts := s.Config, s.Options
	outs, err := sweep.Map(s.workers(), sweep.Indexed(points, s.Seed), func(sp sweep.Spec) (pairPoint, error) {
		return pairSweepPoint(cfg, opts, sp.Seed, microProfile(sp.Index+1, requests, 1.5))
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 12: hot-cluster sensitivity (read micro-benchmark)",
		"hot", "base lat(us)", "base IOPS", "3A lat(us)", "3A IOPS")
	for i, pp := range outs {
		t.AddRow(fig12Row(i+1, pp)...)
	}
	return t, nil
}

// NetworkSizes are the clusters-per-switch sweep points (paper: 4x8 ..
// 4x20).
var NetworkSizes = []int{8, 12, 16, 20}

// Fig13 reports normalized IOPS and latency across network sizes
// (paper: Triple-A improves as the network grows — more neighbours to
// absorb hot-cluster load).
func (s *Suite) Fig13() (*report.Table, error) {
	return s.memoTable("fig13", s.fig13)
}

func (s *Suite) fig13() (*report.Table, error) {
	pts, err := s.networkPoints()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 13: network size sensitivity (normalized to baseline at each size)",
		"clusters/switch", "normLat", "latGain", "normIOPS")
	for _, pt := range pts {
		t.AddRow(pt.fig13...)
	}
	return t, nil
}

// Fig14 reports the two contention times across network sizes (paper:
// link contention nearly eliminated; storage contention steadily
// reduced as clusters are added).
func (s *Suite) Fig14() (*report.Table, error) {
	return s.memoTable("fig14", s.fig14)
}

func (s *Suite) fig14() (*report.Table, error) {
	pts, err := s.networkPoints()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 14: contention times normalized to baseline, by network size",
		"clusters/switch", "linkCont", "storCont")
	for _, pt := range pts {
		t.AddRow(pt.fig14...)
	}
	return t, nil
}

// Fig15 reports the execution-time breakdown (per-request means) on
// both arrays across network sizes — the paper's stacked bars: RC
// stall, switch stall, endpoint wait, link contention, storage
// contention, cell time, transfers.
func (s *Suite) Fig15() (*report.Table, error) {
	return s.memoTable("fig15", s.fig15)
}

func (s *Suite) fig15() (*report.Table, error) {
	pts, err := s.networkPoints()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 15: execution time breakdown (us per request)",
		"config", "RCstall", "swStall", "EPwait", "linkWait", "storWait", "texe", "xfer", "fabric")
	for _, pt := range pts {
		t.AddRow(pt.fig15Base...)
	}
	for _, pt := range pts {
		t.AddRow(pt.fig15Auto...)
	}
	return t, nil
}

// Fig16Result carries the latency time-series of the four migration
// modes as downsampled series points (backend-agnostic values).
type Fig16Result struct {
	Labels []string
	Series [][]metrics.SeriesPoint
	AvgUS  []float64
}

// Fig16 compares latency series under (a) the baseline, (b) naive data
// migration (no shadow cloning), (c) shadow cloning, and (d) full
// Triple-A — exposing the migration overhead shadow cloning hides.
func (s *Suite) Fig16() (*Fig16Result, *report.Table, error) {
	if s.fig16 != nil {
		return s.fig16, s.tables["fig16"], nil
	}
	requests := 30_000
	if s.Requests > 0 {
		requests = s.Requests
	}
	p := microProfile(3, requests, 1.5)
	reqs, _, err := workload.Generate(s.Config.Geometry, p, s.Seed)
	if err != nil {
		return nil, nil, err
	}

	naive := s.Options
	naive.ShadowCloning = false
	naive.StorageManagement = false
	shadow := s.Options
	shadow.ShadowCloning = true
	shadow.StorageManagement = false
	full := s.Options

	res := &Fig16Result{Labels: []string{"baseline", "naive-migration", "shadow-cloning", "triple-a"}}
	runs := []struct {
		name string
		opts *core.Options
	}{
		{"baseline", nil},
		{"naive-migration", &naive},
		{"shadow-cloning", &shadow},
		{"triple-a", &full},
	}
	const samples = 24
	var series [][]metrics.SeriesPoint
	for _, r := range runs {
		rec, _, _, err := runOn(s.Config, p.Name, reqs, r.opts)
		if err != nil {
			return nil, nil, err
		}
		series = append(series, rec.Series(samples))
		res.AvgUS = append(res.AvgUS, rec.AvgLatency().Micros())
	}
	res.Series = series
	t := report.SeriesTable("Figure 16: latency series by migration mode (us, sampled over time)",
		[]string{"sample", "baseline", "naive", "shadow", "triple-a"}, series, samples)
	t.Title += fmt.Sprintf(" | avg us: base=%.0f naive=%.0f shadow=%.0f 3A=%.0f",
		res.AvgUS[0], res.AvgUS[1], res.AvgUS[2], res.AvgUS[3])
	s.fig16, s.tables["fig16"] = res, t
	return res, t, nil
}
