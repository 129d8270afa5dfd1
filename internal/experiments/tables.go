package experiments

import (
	"fmt"

	"triplea/internal/report"
	"triplea/internal/simx"
	"triplea/internal/units"
	"triplea/internal/workload"
)

// Table1 re-derives the workload characteristics from the synthetic
// traces and reports them against the published values, validating that
// the generator reproduces Table 1.
func (s *Suite) Table1() (*report.Table, error) {
	return s.memoTable("table1", s.table1)
}

func (s *Suite) table1() (*report.Table, error) {
	t := report.NewTable("Table 1: workload characteristics (published / generated)",
		"workload", "read%", "readRand%", "writeRand%", "#hot", "hotIO%")
	for _, p := range workload.Table1Profiles() {
		p = s.prepare(p)
		_, gen, err := workload.Generate(s.Config.Geometry, p, s.Seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			p.Name,
			fmt.Sprintf("%.1f / %.1f", p.ReadRatio*100, gen.ReadRatio()*100),
			fmt.Sprintf("%.1f / %.1f", p.ReadRandomness*100, gen.ReadRandomness()*100),
			fmt.Sprintf("%.1f / %.1f", p.WriteRandomness*100, gen.WriteRandomness()*100),
			fmt.Sprintf("%d", len(gen.HotClusters)),
			fmt.Sprintf("%.1f / %.1f", p.HotIORatio*100, gen.HotIORatio()*100),
		)
	}
	return t, nil
}

// Table2 reports the absolute performance metrics of the non-autonomic
// array for every workload: average latency, sustained IOPS, and the
// average link-contention, storage-contention and queue-stall times —
// the paper's Table 2 columns.
func (s *Suite) Table2() (*report.Table, error) {
	return s.memoTable("table2", s.table2)
}

func (s *Suite) table2() (*report.Table, error) {
	t := report.NewTable("Table 2: non-autonomic all-flash array absolute metrics",
		"workload", "avgLat(us)", "IOPS", "linkCont(us)", "storCont(us)", "qStall(us)")
	for _, name := range WorkloadNames() {
		r, err := s.Workload(name)
		if err != nil {
			return nil, err
		}
		mb := r.Base.MeanBreakdown()
		t.AddRow(
			name,
			report.FormatUS(int64(r.Base.AvgLatency())),
			report.FormatCount(r.Base.SustainedIOPS(SustainedWindow)),
			report.FormatUS(int64(mb.LinkContention())),
			report.FormatUS(int64(mb.StorageContention())),
			report.FormatUS(int64(mb.QueueStall())),
		)
	}
	return t, nil
}

// endOfRun is the open upper bound of the last availability phase
// (far beyond any simulated run).
const endOfRun = (1 << 32) * simx.Second

// FaultRow is one configuration's line of the degraded-array table.
type FaultRow struct {
	Name          string
	AvailHealthy  float64 // before the first fault
	AvailDegraded float64 // FIMM dead / cluster pulled
	AvailPost     float64 // after the replug
	Failed        uint64  // requests terminated by faults
	Remapped      uint64  // lost reads restored from shadow clones
	Redirected    uint64  // writes steered off faulted hardware
	Evacuated     int     // pages moved off the pulled cluster
	TTR           simx.Time
	AvgLat        simx.Time
}

// newFaultTable builds the degraded-array study's header; rows arrive
// from faultRowCells (serially or through the sweep pool).
func newFaultTable() *report.Table {
	return report.NewTable(
		"Degraded-array study: reference fault plan (FIMM death + cluster hot-swap)",
		"config", "avail pre%", "avail degr%", "avail post%",
		"failed", "remapped", "redirected", "evac pages", "TTR(us)", "avgLat(us)")
}

// faultRowCells renders one configuration's line of the degraded-array
// table.
func faultRowCells(r FaultRow) []string {
	pct := func(f float64) string { return fmt.Sprintf("%.2f", f*100) }
	ttr := "-"
	if r.TTR > 0 {
		ttr = report.FormatUS(int64(r.TTR))
	}
	return []string{r.Name,
		pct(r.AvailHealthy), pct(r.AvailDegraded), pct(r.AvailPost),
		fmt.Sprintf("%d", r.Failed),
		fmt.Sprintf("%d", r.Remapped),
		fmt.Sprintf("%d", r.Redirected),
		fmt.Sprintf("%d", r.Evacuated),
		ttr,
		report.FormatUS(int64(r.AvgLat)),
	}
}

// WearResult quantifies Section 6.5's wear analysis on a write-heavy
// workload: migration-induced extra writes and the implied lifetime
// reduction (paper worst case: 34% extra writes, 23% lifetime loss).
type WearResult struct {
	HostWrites      uint64
	MigrationWrites uint64
	GCWritesBase    uint64
	GCWritesAuto    uint64
	ExtraWriteFrac  float64 // migration writes / host writes
	LifetimeLoss    float64 // 1 - base_total/auto_total physical writes
}

// Wear runs the wear study (cached after the first call). The paper's
// worst case arises under migration-heavy operation, so the workload
// mixes reads (which trigger autonomic data migration of hot pages)
// with writes (the lifetime denominator) on a congested hot region.
func (s *Suite) Wear() (WearResult, *report.Table, error) {
	if s.wear != nil {
		return *s.wear, s.tables["wear"], nil
	}
	p := microProfile(3, 40_000, 1.5)
	p.Name = "mixed"
	p.ReadRatio = 0.5
	p.WriteRandomness = 1
	p.Footprint = 512 * units.Page // heavy overwrites keep pages hot
	r, err := s.RunProfile(p)
	if err != nil {
		return WearResult{}, nil, err
	}
	w := WearResult{
		HostWrites:      r.AutoFTL.HostWrites,
		MigrationWrites: r.AutoFTL.MigrationWrites,
		GCWritesBase:    r.BaseFTL.GCWrites,
		GCWritesAuto:    r.AutoFTL.GCWrites,
	}
	if w.HostWrites > 0 {
		w.ExtraWriteFrac = float64(w.MigrationWrites+w.GCWritesAuto-w.GCWritesBase) / float64(w.HostWrites)
		if w.ExtraWriteFrac < 0 {
			w.ExtraWriteFrac = float64(w.MigrationWrites) / float64(w.HostWrites)
		}
	}
	baseTotal := float64(r.BaseFTL.TotalWrites())
	autoTotal := float64(r.AutoFTL.TotalWrites())
	if autoTotal > 0 {
		w.LifetimeLoss = 1 - baseTotal/autoTotal
		if w.LifetimeLoss < 0 {
			w.LifetimeLoss = 0
		}
	}
	t := report.NewTable("Section 6.5: data migration wear overhead (write micro-benchmark)",
		"metric", "value", "paper")
	t.AddRow("host writes", fmt.Sprintf("%d", w.HostWrites), "")
	t.AddRow("migration writes", fmt.Sprintf("%d", w.MigrationWrites), "")
	t.AddRow("GC writes (base -> triple-a)", fmt.Sprintf("%d -> %d", w.GCWritesBase, w.GCWritesAuto), "")
	t.AddRow("extra writes", fmt.Sprintf("%.1f%%", w.ExtraWriteFrac*100), "<= 34% (worst case)")
	t.AddRow("lifetime decrease", fmt.Sprintf("%.1f%%", w.LifetimeLoss*100), "<= 23% (worst case)")
	s.wear, s.tables["wear"] = &w, t
	return w, t, nil
}
