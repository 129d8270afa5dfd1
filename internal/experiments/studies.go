package experiments

import (
	"fmt"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/cost"
	"triplea/internal/report"
	"triplea/internal/sweep"
	"triplea/internal/units"
	"triplea/internal/workload"
)

// DRAMStudy reproduces Section 6.6's argument about DRAM relocation:
// the large DRAM moved from the SSDs' on-board buffers to the
// management module still caches (hits bypass the fabric entirely),
// but caching alone cannot resolve link/storage contention — misses
// keep sharing the same buses and FIMMs — while Triple-A's reshaping
// does. Four configurations run the websql workload: the baseline with
// and without the relocated DRAM, and Triple-A with and without it.
func (s *Suite) DRAMStudy() (*report.Table, error) {
	return s.memoTable("dram", s.dramStudy)
}

func (s *Suite) dramStudy() (*report.Table, error) {
	p, _ := workload.ProfileByName("websql")
	p = s.prepare(p)
	reqs, _, err := workload.Generate(s.Config.Geometry, p, s.Seed)
	if err != nil {
		return nil, err
	}

	// Size the DRAM at a quarter of the touched footprint: a realistic
	// cache that helps but cannot absorb the hot region.
	footprint := p.Footprint * units.Pages(s.Config.Geometry.TotalClusters())
	footprintBytes := units.PagesToBytes(footprint, s.Config.Geometry.Nand.PageSizeBytes)
	dramBytes := footprintBytes / 4

	t := report.NewTable(
		fmt.Sprintf("Section 6.6: DRAM relocation study (websql, %d MiB host DRAM)", dramBytes>>20),
		"config", "avgLat(us)", "P99(us)", "dramHit%", "linkCont(us)", "storCont(us)")
	for _, v := range []struct {
		name      string
		dram      bool
		autonomic bool
	}{
		{"baseline", false, false},
		{"baseline+dram", true, false},
		{"triple-a", false, true},
		{"triple-a+dram", true, true},
	} {
		cfg := s.Config
		if v.dram {
			cfg.HostDRAMBytes = dramBytes
		}
		a, err := array.New(cfg)
		if err != nil {
			return nil, err
		}
		if v.autonomic {
			core.Attach(a, s.Options)
		}
		rec, err := a.Run(reqs)
		if err != nil {
			return nil, err
		}
		mb := rec.MeanBreakdown()
		t.AddRow(v.name,
			report.FormatUS(int64(rec.AvgLatency())),
			report.FormatUS(int64(rec.Percentile(99))),
			fmt.Sprintf("%.1f", a.CacheStats().HitRate()*100),
			report.FormatUS(int64(mb.LinkContention())),
			report.FormatUS(int64(mb.StorageContention())),
		)
	}
	return t, nil
}

// FaultStudy runs the degraded-array study: the reference fault plan
// (one FIMM death, one cluster hot-unplug/replug cycle) injected into a
// mixed read/write workload, on the array with autonomics off (faults
// simply break what they hit) and on Triple-A with degraded-mode
// recovery (lost pages remap out-of-place, the pulled cluster's live
// data evacuates over the fabric before release). The table reports
// per-phase availability, failure/redirect counters, evacuation volume
// and time-to-recover for both rows.
func (s *Suite) FaultStudy() (*report.Table, error) {
	return s.memoTable("fault", s.faultStudy)
}

func (s *Suite) faultStudy() (*report.Table, error) {
	cfg, opts := s.Config, s.Options
	requests := s.Requests
	rows, err := sweep.Map(s.workers(), sweep.Indexed(2, s.Seed), func(sp sweep.Spec) (FaultRow, error) {
		// Each row rebuilds its whole arena (workload, plan, array,
		// injector) inside faultPoint, so off/on can run on different
		// workers without sharing anything.
		return faultPoint(cfg, opts, sp.Seed, requests, sp.Index == 1)
	})
	if err != nil {
		return nil, err
	}
	t := newFaultTable()
	for _, row := range rows {
		t.AddRow(faultRowCells(row)...)
	}
	return t, nil
}

// CostStudy reproduces the paper's cost argument (Sections 3.1, 6.5):
// unboxing saves 35-50 % per storage unit, and even with the measured
// migration-induced lifetime loss the unboxed array's replacement
// spending stays below the SSD array's.
func (s *Suite) CostStudy() (*report.Table, error) {
	return s.memoTable("cost", s.costStudy)
}

func (s *Suite) costStudy() (*report.Table, error) {
	w, _, err := s.Wear() // measured lifetime loss feeds the economics
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Sections 3.1/6.5: unboxing cost economics",
		"model", "unit saving", "lifetime loss", "replacement cost vs SSD array")
	for _, v := range []struct {
		name string
		m    cost.Model
		loss float64
	}{
		{"paper low (NAND=65% of SSD)", cost.Model{NANDFractionOfSSD: 0.65, FIMMOverhead: 0.05}, 0.23},
		{"paper high (NAND=50% of SSD)", cost.Model{NANDFractionOfSSD: 0.50, FIMMOverhead: 0.05}, 0.23},
		{"measured wear, mid model", cost.DefaultModel(), w.LifetimeLoss},
	} {
		t.AddRow(v.name,
			fmt.Sprintf("%.1f%%", v.m.UnitSavings()*100),
			fmt.Sprintf("%.1f%%", v.loss*100),
			fmt.Sprintf("%.2fx", v.m.ReplacementCostFactor(v.loss)),
		)
	}
	return t, nil
}
