package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"triplea/internal/experiments"
	"triplea/internal/workload"
)

// smokeRequests is each workload's per-array request count in tests.
var smokeRequests = map[string]int{
	"paper-suite":    1500,
	"gc-overwrite":   20_000,
	"fault-recovery": 20_000,
}

// TestBenchmarkJSONMatchesProgram pins the metric and workload lists in
// BENCHMARK.json to the ones the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].Name)
		}
	}
	for _, c := range []struct {
		name string
		json []metric
		prog []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", c.name, len(c.json), len(c.prog))
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].Name || m.Unit != c.prog[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", c.name, i, m.Name, m.Unit, c.prog[i].Name, c.prog[i].Unit)
			}
		}
	}
}

// TestWorkloadsDeterministic runs every workload at smoke size twice on
// seed 42, once traced, and once on a second seed: the same seed must
// reproduce every simulated metric and registry export, tracing must
// not perturb them, and no run may fail a request.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			specs := w.Specs(smokeRequests[w.Name])
			a := runRep(specs, 42, nil)
			b := runRep(specs, 42, newTracer(w.Name))
			c := runRep(specs, 7, nil)
			for _, rr := range []repResult{a, b, c} {
				if errs := rr.errors(); len(errs) > 0 {
					t.Fatalf("array errors: %v", errs)
				}
				if rr.failed() != 0 {
					t.Fatalf("%d of %d requests failed", rr.failed(), rr.attempted())
				}
			}
			if !sameRep(&a, &b) {
				t.Errorf("traced pass disagrees with untraced: %+v vs %+v", b.Sim, a.Sim)
			}
			if a.Sim == c.Sim {
				t.Errorf("seeds 42 and 7 gave identical outcomes %+v", a.Sim)
			}
			again := runRep(specs, 7, nil)
			if !sameRep(&c, &again) {
				t.Errorf("seed 7 not reproducible: %+v vs %+v", again.Sim, c.Sim)
			}
		})
	}
}

// TestPaperGainsMatchExperiments shows the benchmark times what the
// paper pipeline runs: paper-suite's gains equal the Fig 9 ratios
// computed from experiments.Suite.Workload for the same seed and size.
func TestPaperGainsMatchExperiments(t *testing.T) {
	const n = 1500
	rr := runRep(paperSuite(n), 42, nil)

	s := experiments.NewSuite()
	s.Requests = n
	var lat, iops float64
	congested := 0
	for _, p := range paperSuite(n) {
		if !p.Manager || p.Profile.HotClusters == 0 {
			continue
		}
		r, err := s.Workload(p.Profile.Name)
		if err != nil {
			t.Fatal(err)
		}
		lat += 1 / r.NormLatency()
		iops += r.NormIOPS()
		congested++
	}
	if congested != 11 {
		t.Fatalf("%d congested profiles, want 11", congested)
	}
	lat, iops = lat/float64(congested), iops/float64(congested)
	if rr.Sim.LatGain != lat || rr.Sim.IOPSGain != iops {
		t.Errorf("benchmark gains (%v, %v), experiments (%v, %v)", rr.Sim.LatGain, rr.Sim.IOPSGain, lat, iops)
	}
	if lat <= 1 {
		t.Errorf("lat gain %v: Triple-A should beat the baseline", lat)
	}
}

// TestPanicCountsAsFailure drives a known crash edge (the FTL runs out
// of free blocks on gc-overwrite's small geometry with two hot clusters
// at 120k IOPS, BenchmarkOpportunisticGC's setting, past about 20k
// requests) and checks the panic is recovered into failed requests.
func TestPanicCountsAsFailure(t *testing.T) {
	spec := gcOverwrite(40_000)[0]
	hot := workload.MicroWrite(2, 40_000, 120_000)
	hot.ReadRatio, hot.Footprint = 0.5, 256
	spec.Profile = hot
	res := runArray(spec, 9, nil)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "panic") {
		t.Fatalf("crash edge did not panic: %v", res.Err)
	}
	if res.Failed != res.Attempted || res.Completed != 0 {
		t.Errorf("panicked array: %d attempted, %d completed, %d failed", res.Attempted, res.Completed, res.Failed)
	}
}

// TestMeasureReportsEveryMetric checks both result kinds carry every
// declared metric, with the end-to-end ones non-zero.
func TestMeasureReportsEveryMetric(t *testing.T) {
	def, _ := workloadByName("fault-recovery")
	res := measure(def, smokeRequests[def.Name], 42, 0)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct %v failed %d: %v", res.Correct, res.Failed, res.Problems)
	}
	for _, m := range endToEnd {
		if res.Values[m.Name] <= 0 {
			t.Errorf("%s = %v, want > 0", m.Name, res.Values[m.Name])
		}
	}
	traced, spans := measureTraced(def, smokeRequests[def.Name], 42, 0)
	if !traced.Correct {
		t.Fatalf("traced run incorrect: %v", traced.Problems)
	}
	for _, m := range perLayer {
		if _, ok := traced.Values[m.Name]; !ok {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}
	if len(spans) == 0 {
		t.Error("traced run recorded no spans")
	}
}
