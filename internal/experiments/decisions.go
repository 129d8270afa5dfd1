package experiments

import (
	"fmt"
	"io"
	"sort"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/decision"
	"triplea/internal/fault"
	"triplea/internal/report"
	"triplea/internal/simx"
	"triplea/internal/sweep"
	"triplea/internal/trace"
	"triplea/internal/units"
	"triplea/internal/workload"
)

// This file is the experiments-side surface of the decision flight
// recorder (internal/decision, docs/decision-traces.md): the reference
// trace scenarios the seed-42 golden pins, the tables triplea-bench
// renders for them, and the counterfactual-regret study ranking the
// Table 1 workloads by how far the autonomic migration policy's choices
// fall short of the best-scoring alternative it saw.

// DecisionTraces captures the two reference decision-trace scenarios
// with the flight recorder on: the unfaulted autonomic micro-run
// (migration, reshape, write-redirect and GC-victim decisions) and the
// reference fault plan with degraded-mode recovery (evacuation and
// restore decisions on top). Both runs execute serially on fresh
// arrays, so the resulting TraceSet is byte-identical regardless of
// any sweep width — the property the golden test pins.
func DecisionTraces(seed uint64) (*decision.TraceSet, error) {
	ts := &decision.TraceSet{Seed: seed}

	// Scenario 1: the unfaulted micro-benchmark pair's autonomic half —
	// the same run the determinism golden serializes.
	cfg := array.DefaultConfig()
	cfg.Decisions = decision.Ring
	opts := core.DefaultOptions()
	p := workload.MicroRead(2, 2000, 240_000)
	_, a, _, err := runOnePoint(cfg, seed, p, &opts)
	if err != nil {
		return nil, err
	}
	ts.Scenarios = append(ts.Scenarios, decision.NamedTrace{
		Name: "autonomic-micro-read", Trace: a.Decisions().Trace(),
	})

	// Scenario 2: the reference fault plan with recovery on — exercises
	// the evacuation and restore families the unfaulted run never hits.
	fp := workload.MicroRead(2, 2000, 240_000)
	fp.ReadRatio = 0.6
	fp.WriteRandomness = 1
	reqs, _, err := workload.Generate(cfg.Geometry, fp, seed)
	if err != nil {
		return nil, err
	}
	span := reqs[len(reqs)-1].Arrival
	plan := fault.ReferencePlan(cfg.Geometry, span)
	plan.Seed = seed
	fa, err := array.New(cfg)
	if err != nil {
		return nil, err
	}
	core.Attach(fa, opts)
	fault.Attach(fa, plan, fault.Options{Recover: true})
	if _, err := fa.Run(reqs); err != nil {
		return nil, err
	}
	ts.Scenarios = append(ts.Scenarios, decision.NamedTrace{
		Name: "faulted-recovery", Trace: fa.Decisions().Trace(),
	})

	// Scenario 3: GC pressure on a tiny-block array — repeated
	// overwrites of a few LPNs force victim selection, the one decision
	// family the full-geometry micro-runs never reach (their 2000
	// requests cannot exhaust a default-size plane's free blocks).
	gcfg := array.DefaultConfig()
	gcfg.Geometry.Switches = 2
	gcfg.Geometry.ClustersPerSwitch = 2
	gcfg.Geometry.FIMMsPerCluster = 2
	gcfg.Geometry.PackagesPerFIMM = 2
	gcfg.Geometry.Nand.DiesPerPackage = 1
	gcfg.Geometry.Nand.BlocksPerPlane = 8 * units.Block
	gcfg.Geometry.Nand.PagesPerBlock = 4 * units.Page
	gcfg.GCThreshold = 6 * units.Block
	gcfg.Decisions = decision.Ring
	ga, err := array.New(gcfg)
	if err != nil {
		return nil, err
	}
	var greqs []trace.Request
	gap := simx.Time(0)
	for round := 0; round < 20; round++ {
		for lpn := int64(0); lpn < 4; lpn++ {
			greqs = append(greqs, trace.Request{Arrival: gap, Op: trace.Write, LPN: lpn, Pages: 1 * units.Page})
			gap += simx.Millisecond
		}
	}
	if _, err := ga.Run(greqs); err != nil {
		return nil, err
	}
	ts.Scenarios = append(ts.Scenarios, decision.NamedTrace{
		Name: "gc-pressure", Trace: ga.Decisions().Trace(),
	})
	return ts, nil
}

// RenderDecisionTables renders one per-family summary table per
// scenario of a TraceSet — the text-table half of the -decisions
// export (the JSON half is decision.EncodeJSON).
func RenderDecisionTables(w io.Writer, ts *decision.TraceSet) error {
	for _, sc := range ts.Scenarios {
		t := report.NewTable(
			fmt.Sprintf("Decision summary: %s (seed %d, %d decisions)",
				sc.Name, ts.Seed, sc.Trace.Summary.Decisions),
			"family", "count", "meanRegret", "maxRegret", "p95Regret")
		for _, f := range sc.Trace.Summary.Families {
			t.AddRow(f.Family.String(),
				fmt.Sprintf("%d", f.Count),
				fmt.Sprintf("%.4f", f.RegretMean),
				fmt.Sprintf("%.4f", f.RegretMax),
				fmt.Sprintf("%.4f", f.RegretP95),
			)
		}
		if err := renderOne(w, t, nil); err != nil {
			return err
		}
	}
	return nil
}

// RegretRow is one workload's line of the counterfactual-regret study.
type RegretRow struct {
	Name       string
	Decisions  uint64 // all families
	Migrations uint64 // migration-family decisions
	MeanRegret float64
	MaxRegret  float64
	P95Regret  float64
}

// regretPoint runs one Table 1 workload on Triple-A with the flight
// recorder on and reduces the run to its migration-regret summary. The
// whole arena is built inside the call and the row crosses the worker
// boundary as a plain value, like every other sweep point.
func regretPoint(cfg array.Config, opts core.Options, seed uint64, requests int, index int) (RegretRow, error) {
	p := workload.Table1Profiles()[index]
	if requests > 0 {
		p.Requests = requests
	}
	cfg.Decisions = decision.Ring
	_, a, _, err := runOnePoint(cfg, seed, p, &opts)
	if err != nil {
		return RegretRow{}, err
	}
	sum := a.Decisions().Summary()
	row := RegretRow{Name: p.Name, Decisions: sum.Decisions}
	for _, f := range sum.Families {
		if f.Family == decision.Migration {
			row.Migrations = f.Count
			row.MeanRegret = f.RegretMean
			row.MaxRegret = f.RegretMax
			row.P95Regret = f.RegretP95
		}
	}
	return row, nil
}

// RegretStudy ranks the Table 1 workloads by mean migration regret:
// how much bus utilization the hot-cluster migration policy left on
// the table per decision, against the best alternative it scored
// (including candidates the degraded/warm exclusions vetoed). A high
// mean says the policy's Eq.1/Eq.3 inputs were stale or its exclusions
// too aggressive for that workload; zero says every choice was the
// argmax of what it saw.
func (s *Suite) RegretStudy() (*report.Table, error) {
	return s.memoTable("regret", s.regretStudy)
}

func (s *Suite) regretStudy() (*report.Table, error) {
	cfg, opts := s.Config, s.Options
	requests := s.Requests
	n := len(workload.Table1Profiles())
	rows, err := sweep.Map(s.workers(), sweep.Indexed(n, s.Seed), func(sp sweep.Spec) (RegretRow, error) {
		return regretPoint(cfg, opts, sp.Seed, requests, sp.Index)
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].MeanRegret > rows[j].MeanRegret {
			return true
		}
		if rows[j].MeanRegret > rows[i].MeanRegret {
			return false
		}
		return rows[i].Name < rows[j].Name
	})
	t := report.NewTable(
		"Counterfactual-regret study: Table 1 workloads ranked by mean migration regret",
		"workload", "decisions", "migrations", "meanRegret", "maxRegret", "p95Regret")
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%d", r.Decisions),
			fmt.Sprintf("%d", r.Migrations),
			fmt.Sprintf("%.4f", r.MeanRegret),
			fmt.Sprintf("%.4f", r.MaxRegret),
			fmt.Sprintf("%.4f", r.P95Regret),
		)
	}
	return t, nil
}
