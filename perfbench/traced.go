package main

import "time"

// perLayer lists the traced run's metrics, named <module>.<metric>.
// Counts come from public accessors after Run, host times from spans
// around the benchmark's calls and from the layer probes. Each
// <layer>.est_share is that layer's operation count times its probe's
// ns/op, as a share of array.run_s: an outside-in estimate of where
// Run's time goes. Shares overlap where probes nest.
var perLayer = []metricDef{
	{"workload.gen_s", "s"},

	{"array.new_s", "s"},
	{"array.prepare_s", "s"},
	{"array.run_s", "s"},
	{"array.gc_rounds", "count"},
	{"array.gc_deferrals", "count"},
	{"array.read_retries", "count"},
	{"array.migrations", "count"},
	{"array.requests_failed", "count"},
	{"array.pages_failed", "count"},
	{"array.reads_remapped", "count"},
	{"array.writes_redirected", "count"},
	{"array.flushes_dropped", "count"},

	{"simx.events", "count"},
	{"simx.events_per_req", "ratio"},
	{"simx.events_per_s", "1/s"},
	{"simx.schedule_fire_ns", "ns"},
	{"simx.schedule_fire_allocs", "count"},
	{"simx.acquire_release_ns", "ns"},
	{"simx.acquire_release_allocs", "count"},
	{"simx.est_share", "ratio"},

	{"pcie.link_packets", "count"},
	{"pcie.link_bytes", "B"},
	{"pcie.credit_stall_us", "us"},
	{"pcie.link_util_max", "ratio"},
	{"pcie.switch_forwarded", "count"},
	{"pcie.switch_queue_stall_us", "us"},
	{"pcie.rc_queue_stall_us", "us"},
	{"pcie.link_hop_ns", "ns"},
	{"pcie.link_hop_allocs", "count"},
	{"pcie.switch_forward_ns", "ns"},
	{"pcie.switch_forward_allocs", "count"},
	{"pcie.est_share", "ratio"},

	{"cluster.reads", "count"},
	{"cluster.writes", "count"},
	{"cluster.bg_reads", "count"},
	{"cluster.bg_writes", "count"},
	{"cluster.erases", "count"},
	{"cluster.buffer_hits", "count"},
	{"cluster.queue_full_hits", "count"},
	{"cluster.ep_wait_us", "us"},
	{"cluster.storage_wait_us", "us"},
	{"cluster.link_wait_us", "us"},
	{"cluster.write_buf_stall_us", "us"},
	{"cluster.bus_util_max", "ratio"},
	{"cluster.command_ns", "ns"},
	{"cluster.command_allocs", "count"},
	{"cluster.est_share", "ratio"},

	{"fimm.reads", "count"},
	{"fimm.programs", "count"},
	{"fimm.erases", "count"},
	{"fimm.channel_util_max", "ratio"},
	{"fimm.op_ns", "ns"},
	{"fimm.op_allocs", "count"},
	{"fimm.est_share", "ratio"},

	{"nand.reads", "count"},
	{"nand.programs", "count"},
	{"nand.erases", "count"},
	{"nand.multiplane_share", "ratio"},
	{"nand.cache_hit_rate", "ratio"},
	{"nand.busy_util", "ratio"},
	{"nand.max_erase_wear", "count"},
	{"nand.read_ns", "ns"},
	{"nand.read_allocs", "count"},
	{"nand.program_ns", "ns"},
	{"nand.program_allocs", "count"},
	{"nand.est_share", "ratio"},

	{"ftl.host_writes", "count"},
	{"ftl.gc_writes", "count"},
	{"ftl.migration_writes", "count"},
	{"ftl.gc_plans", "count"},
	{"ftl.gc_erases", "count"},
	{"ftl.prepopulated", "count"},
	{"ftl.mapped_pages", "count"},
	{"ftl.gc_reclaim_ratio", "ratio"},
	{"ftl.allocate_ns", "ns"},
	{"ftl.allocate_allocs", "count"},
	{"ftl.plan_gc_ns", "ns"},
	{"ftl.plan_gc_allocs", "count"},
	{"ftl.wear_ns", "ns"},
	{"ftl.wear_allocs", "count"},
	{"ftl.est_share", "ratio"},

	{"core.hot_detections", "count"},
	{"core.cold_misses", "count"},
	{"core.migrations", "count"},
	{"core.shadow_clones", "count"},
	{"core.laggards", "count"},
	{"core.reshapes", "count"},
	{"core.write_redirects", "count"},
	{"core.migration_errors", "count"},
	{"core.shadow_share", "ratio"},
	{"core.cold_miss_ratio", "ratio"},
	{"core.decision_ns", "ns"},
	{"core.decision_allocs", "count"},
	{"core.est_share", "ratio"},
	{"core.lat_gain_x", "x"},
	{"core.iops_gain_x", "x"},

	{"fault.injected", "count"},
	{"fault.mappings_dropped", "count"},
	{"fault.evacuated", "count"},
	{"fault.evac_errors", "count"},
	{"fault.evac_success_ratio", "ratio"},
	{"fault.ttr_ms", "ms"},

	{"metrics.footprint_bytes", "B"},
	{"metrics.p50_us", "us"},
	{"metrics.p99_us", "us"},
	{"metrics.p9999_us", "us"},
	{"metrics.latency_samples", "count"},
	{"metrics.tail_samples", "count"},
	{"metrics.record_exact_ns", "ns"},
	{"metrics.record_exact_allocs", "count"},
	{"metrics.record_streaming_ns", "ns"},
	{"metrics.record_streaming_allocs", "count"},
	{"metrics.est_share", "ratio"},

	{"go.allocs_per_req", "count"},
	{"go.bytes_per_req", "B"},
	{"go.gc_cycles", "count"},

	{"bench.trace_overhead", "ratio"},
}

// ratio is num/den, or 0 when den is 0 (the layer did no such work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// measureTraced alternates untraced and traced passes until the budget
// is spent (at least one pair), then runs the layer probes. Every pass
// must reproduce the first untraced pass's simulated outcomes and
// registry exports exactly: tracing observes, it does not perturb.
func measureTraced(def workloadDef, requests int, seed uint64, budget time.Duration) (result, []span) {
	specs := def.Specs(requests)
	tr := newTracer(def.Name)
	res := result{Correct: true, Names: perLayer, Values: map[string]float64{}}
	var plainWall, tracedWall, gen, newS, prep, run []float64
	var base, first repResult
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		// Alternate which pass goes first, so warm-up and drift fall on
		// both sides of the overhead ratio.
		var plain, traced repResult
		tr.rep = i
		if i%2 == 0 {
			plain, traced = runRep(specs, seed, nil), runRep(specs, seed, tr)
		} else {
			traced, plain = runRep(specs, seed, tr), runRep(specs, seed, nil)
		}
		if i == 0 {
			base, first = plain, traced
			for _, err := range plain.errors() {
				res.Problems = append(res.Problems, "failed array: "+err.Error())
			}
		}
		res.check(sameRep(&base, &plain), "untraced pass %d disagrees with pass 0", i)
		res.check(sameRep(&base, &traced), "traced pass %d disagrees with the untraced run: %+v vs %+v", i, traced.Sim, base.Sim)
		res.Attempted += plain.attempted() + traced.attempted()
		res.Failed += plain.failed() + traced.failed()
		plainWall = append(plainWall, plain.Wall.Seconds())
		tracedWall = append(tracedWall, traced.Wall.Seconds())
		var g, n, p, r time.Duration
		for _, a := range traced.Arrays {
			g, n, p, r = g+a.Gen, n+a.New, p+a.Prepare, r+a.Run
		}
		gen, newS = append(gen, g.Seconds()), append(newS, n.Seconds())
		prep, run = append(prep, p.Seconds()), append(run, r.Seconds())
	}

	lc := layerCounts{}
	var alloc allocDelta
	for _, a := range first.Arrays {
		lc.merge(a.Layers)
		alloc.Mallocs += a.Alloc.Mallocs
		alloc.Bytes += a.Alloc.Bytes
		alloc.GCCycles += a.Alloc.GCCycles
	}
	for _, m := range perLayer {
		if v, ok := lc[m.Name]; ok {
			res.Values[m.Name] = v
		}
	}
	attempted := float64(first.attempted())
	runS := median(run)
	res.Values["workload.gen_s"] = median(gen)
	res.Values["array.new_s"] = median(newS)
	res.Values["array.prepare_s"] = median(prep)
	res.Values["array.run_s"] = runS
	res.Values["simx.events_per_req"] = ratio(lc["simx.events"], attempted)
	res.Values["simx.events_per_s"] = ratio(lc["simx.events"], runS)
	nandOps := lc["nand.reads"] + lc["nand.programs"] + lc["nand.erases"]
	res.Values["nand.multiplane_share"] = ratio(lc["nand.multiplane_ops"], nandOps)
	res.Values["nand.cache_hit_rate"] = ratio(lc["nand.cache_hits"], lc["nand.reads"])
	res.Values["nand.busy_util"] = ratio(lc["nand.busy_ns"], lc["nand.die_ns"])
	res.Values["ftl.gc_reclaim_ratio"] = ratio(lc["ftl.gc_pages_erased"]-lc["ftl.gc_writes"], lc["ftl.gc_writes"])
	res.Values["core.shadow_share"] = ratio(lc["core.shadow_clones"], lc["core.migrations"])
	res.Values["core.cold_miss_ratio"] = ratio(lc["core.cold_misses"], lc["core.hot_detections"])
	res.Values["core.lat_gain_x"] = first.Sim.LatGain
	res.Values["core.iops_gain_x"] = first.Sim.IOPSGain
	res.Values["fault.evac_success_ratio"] = ratio(lc["fault.evacuated"], lc["fault.evacuated"]+lc["fault.evac_errors"])
	res.Values["fault.ttr_ms"] = first.Sim.TTRms
	res.Values["metrics.p50_us"] = first.Sim.P50us
	res.Values["metrics.p99_us"] = first.Sim.P99us
	res.Values["metrics.p9999_us"] = first.Sim.P9999us
	res.Values["metrics.latency_samples"] = float64(first.Sim.Samples)
	res.Values["metrics.tail_samples"] = float64(first.Sim.Beyond)
	res.Values["go.allocs_per_req"] = ratio(float64(alloc.Mallocs), attempted)
	res.Values["go.bytes_per_req"] = ratio(float64(alloc.Bytes), attempted)
	res.Values["go.gc_cycles"] = float64(alloc.GCCycles)
	res.Values["bench.trace_overhead"] = ratio(median(tracedWall), median(plainWall))

	var cfgSpec arraySpec
	for _, s := range specs {
		if s.Measured {
			cfgSpec = s
			break
		}
	}
	probes := runProbes(cfgSpec.Config)
	probes["ftl.wear"] = probeResult{
		NS:     ratio(lc["ftl.wear_probe_ns"], lc["ftl.wear_probe_calls"]),
		Allocs: ratio(lc["ftl.wear_probe_mallocs"], lc["ftl.wear_probe_calls"]),
	}
	for name, p := range probes {
		res.Values[name+"_ns"] = p.NS
		res.Values[name+"_allocs"] = p.Allocs
	}
	ns := func(name string) float64 { return probes[name].NS }
	allocations := lc["ftl.host_writes"] + lc["ftl.gc_writes"] + lc["ftl.migration_writes"]
	linkHops := lc["pcie.link_packets"] - lc["pcie.switch_forwarded"]
	work := map[string]float64{
		"simx":    lc["simx.events"] * ns("simx.schedule_fire"),
		"pcie":    linkHops*ns("pcie.link_hop") + lc["pcie.switch_forwarded"]*ns("pcie.switch_forward"),
		"cluster": (lc["cluster.reads"] + lc["cluster.writes"] + lc["cluster.bg_reads"] + lc["cluster.bg_writes"]) * ns("cluster.command"),
		"fimm":    (lc["fimm.reads"] + lc["fimm.programs"] + lc["fimm.erases"]) * ns("fimm.op"),
		"nand":    lc["nand.reads"]*ns("nand.read") + lc["nand.programs"]*ns("nand.program"),
		"ftl":     allocations*ns("ftl.allocate") + lc["ftl.gc_plans"]*ns("ftl.plan_gc") + lc["ftl.wear_calls"]*ns("ftl.wear"),
		"core":    lc["core.page_completions"] * ns("core.decision"),
		"metrics": lc["metrics.recorded_exact"]*ns("metrics.record_exact") + lc["metrics.recorded_streaming"]*ns("metrics.record_streaming"),
	}
	for layer, w := range work {
		res.Values[layer+".est_share"] = ratio(w, runS*1e9)
	}
	return res, tr.spans
}
