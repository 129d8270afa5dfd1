// Command triplea-bench regenerates the paper's evaluation: every table
// and figure of Section 6, printed as text tables.
//
// Usage:
//
//	triplea-bench [-experiment all|table1|table2|fig1|fig9|...|wear|regret]
//	              [-requests N] [-seed S] [-switches N] [-clusters N]
//	              [-parallel N] [-sweep-points N] [-decisions FILE]
//
// The default reproduces the full 4x16 (16 TB) configuration. Reducing
// -requests shortens runs proportionally. -parallel widens the sweep
// pool for the multi-point experiments (Fig12, Fig13-15, fault); any
// width prints byte-identical tables (see docs/performance.md). Every
// recorder runs without the per-request log (docs/metrics.md), since
// no table reads it, so memory stays bounded at any -requests.
// -decisions FILE captures the reference decision-trace scenarios with
// the flight recorder on (see docs/decision-traces.md), writes the
// TraceSet JSON to FILE and prints the per-family regret summaries
// instead of running experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"triplea/internal/decision"
	"triplea/internal/experiments"
	"triplea/internal/metrics"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "experiment to run: all, "+strings.Join(experiments.Names, ", "))
		requests = flag.Int("requests", 0, "override request count per run (0 = experiment defaults)")
		seed     = flag.Uint64("seed", 42, "workload generation seed")
		switches = flag.Int("switches", 0, "override switch count (0 = paper default 4)")
		clusters = flag.Int("clusters", 0, "override clusters per switch (0 = paper default 16)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"sweep-pool width for multi-point experiments (1 = serial; output is identical either way)")
		points    = flag.Int("sweep-points", 0, "override the Fig12 hot-cluster point count (0 = paper default 6)")
		decisions = flag.String("decisions", "", "capture the reference decision-trace scenarios and write TraceSet JSON to this file")
	)
	flag.Parse()

	if *decisions != "" {
		if err := captureDecisions(*decisions, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "triplea-bench:", err)
			os.Exit(1)
		}
		return
	}

	s := experiments.NewSuite()
	s.Seed = *seed
	s.Requests = *requests
	s.Parallel = *parallel
	s.Fig12Points = *points
	s.Config.Metrics = metrics.Streaming
	if *switches > 0 {
		s.Config.Geometry.Switches = *switches
	}
	if *clusters > 0 {
		s.Config.Geometry.ClustersPerSwitch = *clusters
	}

	start := time.Now()
	var err error
	if *exp == "all" {
		err = s.RunAll(os.Stdout)
	} else {
		err = s.Run(*exp, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "triplea-bench:", err)
		os.Exit(1)
	}
	fmt.Printf("(completed in %v)\n", time.Since(start).Round(time.Millisecond))
}

// captureDecisions runs the reference decision-trace scenarios with
// the flight recorder on, writes the TraceSet JSON to path and prints
// the per-family regret summary tables.
func captureDecisions(path string, seed uint64) error {
	ts, err := experiments.DecisionTraces(seed)
	if err != nil {
		return err
	}
	b, err := decision.EncodeJSON(*ts)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	if err := experiments.RenderDecisionTables(os.Stdout, ts); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes, %d scenarios)\n", path, len(b), len(ts.Scenarios))
	return nil
}
