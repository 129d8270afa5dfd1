// Laggard scenario: storage contention in its purest form. A skewed
// workload hammers a tiny working set that lives entirely on ONE FIMM
// of one cluster — the other three FIMMs sit idle. The non-autonomic
// array queues behind that laggard; Triple-A's data-layout reshaping
// (Section 4.2) drains the hot pages to sibling FIMMs and redirects
// incoming writes, spreading the load across the cluster.
//
// The example builds the trace by hand against the public array API,
// showing how to drive the simulator without the workload generator.
package main

import (
	"fmt"
	"log"
	"sort"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/units"
)

func main() {
	cfg := array.DefaultConfig()
	_ = cfg.Geometry.PagesPerFIMM() // LPNs below stay within FIMM 0

	// Under the clustered layout, LPNs [0, PagesPerFIMM) live on FIMM 0
	// of cluster sw0/cl0. A 64-page working set there is a guaranteed
	// single-FIMM hotspot.
	const workingSet = 64
	const requests = 20_000
	rng := simx.NewRNG(3)
	var reqs []trace.Request
	var now simx.Time
	for i := 0; i < requests; i++ {
		now += simx.Time(20+rng.Intn(20)) * simx.Microsecond // ~30-50K IOPS
		op := trace.Read
		if rng.Bool(0.3) {
			op = trace.Write
		}
		reqs = append(reqs, trace.Request{
			Arrival: now,
			Op:      op,
			LPN:     rng.Int63n(workingSet),
			Pages:   units.Page,
		})
	}

	run := func(autonomic bool) {
		a, err := array.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		var mgr *core.Manager
		mode := "baseline"
		if autonomic {
			mgr = core.Attach(a, core.DefaultOptions())
			mode = "triple-a"
		}
		rec, err := a.Run(reqs)
		if err != nil {
			log.Fatal(err)
		}

		// Where does the working set live now?
		perFIMM := map[topo.FIMMID]int{}
		for lpn := int64(0); lpn < workingSet; lpn++ {
			perFIMM[a.FTL().ResidentFIMM(lpn)]++
		}
		fmt.Printf("%s:\n  avg %-10v P99 %-10v\n", mode, rec.AvgLatency(), rec.Percentile(99))
		fmt.Printf("  working-set placement:")
		fimms := make([]topo.FIMMID, 0, len(perFIMM))
		for f := range perFIMM {
			fimms = append(fimms, f)
		}
		sort.Slice(fimms, func(i, j int) bool {
			return fimms[i].Flat(&cfg.Geometry) < fimms[j].Flat(&cfg.Geometry)
		})
		for _, f := range fimms {
			fmt.Printf(" %v=%d", f, perFIMM[f])
		}
		fmt.Println()
		if mgr != nil {
			s := mgr.Stats()
			fmt.Printf("  reshapes=%d writeRedirects=%d laggardsDetected=%d\n",
				s.Reshapes, s.WriteRedirects, s.LaggardsDetected)
		}
		fmt.Println()
	}
	run(false)
	run(true)
}
