// Command perfbench is the repository benchmark. It runs one workload
// of the Triple-A simulator for a fixed host-time budget, checks the
// simulator's outputs, and prints every metric by name and unit; the
// last line of standard output is one JSON object.
//
//	go run . --workload paper-suite --seed 42 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes and reports the per-layer
// metrics, layer probes and tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"sim_mean_us", "us"},
	{"sim_p95_us", "us"},
	{"sim_iops", "1/s"},
	{"sim_write_amp", "ratio"},
}

// minReps is the fewest untraced passes a run makes, whatever --seconds
// says, so every reported time is a median of at least three.
const minReps = 3

func main() {
	name := flag.String("workload", "paper-suite", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 42, "workload seed")
	seconds := flag.Float64("seconds", 35, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the span file of a traced run")
	flag.Parse()

	def, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	host := describeHost(*seed)
	hb, _ := json.Marshal(host) // strings and ints always encode
	fmt.Printf("host: %s\n", hb)

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		res = measure(def, def.Requests, *seed, budget)
	} else {
		var spans []span
		res, spans = measureTraced(def, def.Requests, *seed, budget)
		if err := writeSpans(*out, def.Name, *seed, host, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	res.print(def.Name)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// value is one metric as printed in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict and its metrics, in print order.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Problems  []string
	Names     []metricDef
	Values    map[string]float64
}

// check records a correctness problem when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) print(workload string) {
	fmt.Printf("workload %s: ops %d failed %d correct %v\n", workload, r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
	metrics := make(map[string]value, len(r.Names))
	for _, m := range r.Names {
		v := r.Values[m.Name]
		fmt.Printf("  %-32s %16.6f %s\n", m.Name, v, m.Unit)
		metrics[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sameRep reports whether two passes over one seed agree on every
// simulated outcome and every registry export.
func sameRep(a, b *repResult) bool {
	return a.Sim == b.Sim && slices.Equal(a.hashes(), b.hashes())
}

// measure runs untraced passes until the budget is spent (and at least
// minReps), reporting medians of host times and the simulated outcomes,
// which every pass must reproduce exactly.
func measure(def workloadDef, requests int, seed uint64, budget time.Duration) result {
	specs := def.Specs(requests)
	res := result{Correct: true, Names: endToEnd}
	var walls, setups, heaps []float64
	var first repResult
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		rr := runRep(specs, seed, nil)
		if i == 0 {
			first = rr
			for _, err := range rr.errors() {
				res.Problems = append(res.Problems, "failed array: "+err.Error())
			}
		}
		res.check(sameRep(&first, &rr), "pass %d disagrees with pass 0: %+v vs %+v", i, rr.Sim, first.Sim)
		res.Attempted += rr.attempted()
		res.Failed += rr.failed()
		walls = append(walls, rr.Wall.Seconds())
		setups = append(setups, rr.Setup.Seconds())
		heaps = append(heaps, float64(rr.Heap)/(1<<20))
	}
	fmt.Printf("passes: %d, wall_s per pass: %v\n", len(walls), walls)
	res.Values = map[string]float64{
		"wall_s":        median(walls),
		"setup_s":       median(setups),
		"heap_mb":       median(heaps),
		"sim_mean_us":   first.Sim.MeanUs,
		"sim_p95_us":    first.Sim.P95us,
		"sim_iops":      first.Sim.IOPS,
		"sim_write_amp": first.Sim.WriteAmp,
	}
	return res
}

// writeSpans saves a traced run's spans with the host record.
func writeSpans(dir, workload string, seed uint64, host hostInfo, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Host  hostInfo `json:"host"`
		Spans []span   `json:"spans"`
	}{host, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	return nil
}
