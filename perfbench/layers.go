package main

import (
	"runtime"
	"time"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/fault"
	"triplea/internal/metrics"
	"triplea/internal/pcie"
	"triplea/internal/simx"
	"triplea/internal/topo"
)

// layerCounts holds one array's per-layer counters, read through public
// accessors after Run, keyed by metric name. Keys in maxKeys merge
// across arrays by maximum; every other key sums.
type layerCounts map[string]float64

var maxKeys = map[string]bool{
	"pcie.link_util_max":      true,
	"cluster.bus_util_max":    true,
	"fimm.channel_util_max":   true,
	"nand.max_erase_wear":     true,
	"metrics.footprint_bytes": true,
}

func (lc layerCounts) merge(o layerCounts) {
	for k, v := range o {
		if maxKeys[k] {
			lc[k] = max(lc[k], v)
		} else {
			lc[k] += v
		}
	}
}

// util is a busy integral as a share of the run's simulated length.
func util(busy, end simx.Time) float64 {
	if end <= 0 {
		return 0
	}
	return float64(busy) / float64(end)
}

// collectLayers reads every layer's counters from a finished array. mgr
// and inj are nil when not attached.
func collectLayers(a *array.Array, mgr *core.Manager, inj *fault.Injector) layerCounts {
	lc := layerCounts{}
	g := a.Config().Geometry
	end := a.Engine().Now()

	lc["array.gc_rounds"] = float64(a.GCRounds())
	lc["array.gc_deferrals"] = float64(a.GCDeferrals())
	lc["array.read_retries"] = float64(a.ReadRetries())
	lc["array.migrations"] = float64(a.Migrations())
	fs := a.FaultStats()
	lc["array.requests_failed"] = float64(fs.RequestsFailed)
	lc["array.pages_failed"] = float64(fs.PagesFailed)
	lc["array.reads_remapped"] = float64(fs.ReadsRemapped)
	lc["array.writes_redirected"] = float64(fs.WritesRedirected)
	lc["array.flushes_dropped"] = float64(fs.FlushesDropped)

	lc["simx.events"] = float64(a.Engine().Fired())

	link := func(l *pcie.Link) {
		lc["pcie.link_packets"] += float64(l.Packets())
		lc["pcie.link_bytes"] += float64(l.Bytes())
		lc["pcie.credit_stall_us"] += l.CreditStallNS().Micros()
		lc["pcie.link_util_max"] = max(lc["pcie.link_util_max"], util(l.BusyNS(), end))
	}
	for s := 0; s < g.Switches; s++ {
		down, up := a.SwitchLinks(s)
		link(down)
		link(up)
		sw := a.Switch(s)
		lc["pcie.switch_forwarded"] += float64(sw.Forwarded())
		lc["pcie.switch_queue_stall_us"] += sw.QueueStallNS().Micros()
	}
	lc["pcie.rc_queue_stall_us"] = a.RootComplex().QueueStallNS().Micros()

	for s := 0; s < g.Switches; s++ {
		for c := 0; c < g.ClustersPerSwitch; c++ {
			id := topo.ClusterID{Switch: s, Cluster: c}
			down, up := a.EPLinks(id)
			link(down)
			link(up)
			ep := a.Endpoint(id)
			st := ep.Stats()
			lc["cluster.reads"] += float64(st.Reads)
			lc["cluster.writes"] += float64(st.Writes)
			lc["cluster.bg_reads"] += float64(st.BgReads)
			lc["cluster.bg_writes"] += float64(st.BgWrites)
			lc["cluster.erases"] += float64(st.Erases)
			lc["cluster.buffer_hits"] += float64(st.BufferHits)
			lc["cluster.queue_full_hits"] += float64(st.QueueFullHits)
			lc["cluster.ep_wait_us"] += st.EPWaitNS.Micros()
			lc["cluster.storage_wait_us"] += st.StorageWaitNS.Micros()
			lc["cluster.link_wait_us"] += st.LinkWaitNS.Micros()
			lc["cluster.write_buf_stall_us"] += st.WriteBufStall.Micros()
			lc["cluster.bus_util_max"] = max(lc["cluster.bus_util_max"], util(ep.BusBusyNS(), end))
			if mgr != nil {
				// Every host page completion runs one manager decision.
				lc["core.page_completions"] += float64(st.Reads + st.Writes)
			}
			for f := 0; f < g.FIMMsPerCluster; f++ {
				fm := ep.FIMM(f)
				fst := fm.Stats()
				lc["fimm.reads"] += float64(fst.Reads)
				lc["fimm.programs"] += float64(fst.Programs)
				lc["fimm.erases"] += float64(fst.Erases)
				lc["fimm.channel_util_max"] = max(lc["fimm.channel_util_max"], util(fst.ChannelBusy, end))
				for p := 0; p < fm.NumPackages(); p++ {
					pst := fm.Package(p).Stats()
					lc["nand.reads"] += float64(pst.Reads)
					lc["nand.programs"] += float64(pst.Programs)
					lc["nand.erases"] += float64(pst.Erases)
					lc["nand.multiplane_ops"] += float64(pst.MultiPlane)
					lc["nand.cache_hits"] += float64(pst.CacheHits)
					lc["nand.busy_ns"] += float64(pst.BusyNS)
					lc["nand.die_ns"] += float64(end) * float64(g.Nand.DiesPerPackage)
					lc["nand.max_erase_wear"] = max(lc["nand.max_erase_wear"], float64(pst.MaxEraseWear))
				}
			}
		}
	}

	fst := a.FTL().Stats()
	lc["ftl.host_writes"] = float64(fst.HostWrites)
	lc["ftl.gc_writes"] = float64(fst.GCWrites)
	lc["ftl.migration_writes"] = float64(fst.MigrationWrites)
	lc["ftl.gc_plans"] = float64(fst.GCPlans)
	lc["ftl.gc_erases"] = float64(fst.GCErases)
	lc["ftl.gc_pages_erased"] = float64(fst.GCErases) * float64(g.Nand.PagesPerBlock)
	lc["ftl.prepopulated"] = float64(fst.Prepopulated)
	lc["ftl.mapped_pages"] = float64(a.FTL().MappedPages())

	wearProbe(lc, a)

	if mgr != nil {
		cs := mgr.Stats()
		lc["core.hot_detections"] = float64(cs.HotDetections)
		lc["core.cold_misses"] = float64(cs.ColdMisses)
		lc["core.migrations"] = float64(cs.Migrations)
		lc["core.shadow_clones"] = float64(cs.ShadowClones)
		lc["core.laggards"] = float64(cs.LaggardsDetected)
		lc["core.reshapes"] = float64(cs.Reshapes)
		lc["core.write_redirects"] = float64(cs.WriteRedirects)
		lc["core.migration_errors"] = float64(cs.MigrationErrors)
		// Each placement decision scores every FIMM of the cluster by
		// ftl.Wear when wear-aware placement is on.
		if mgr.Options().WearAware {
			lc["ftl.wear_calls"] = float64(cs.Migrations+cs.Reshapes+cs.WriteRedirects) * float64(g.FIMMsPerCluster)
		}
	}
	if inj != nil {
		is := inj.Stats()
		lc["fault.injected"] = float64(is.Injected)
		lc["fault.mappings_dropped"] = float64(is.MappingsDropped)
		lc["fault.evacuated"] = float64(is.Evacuated)
		lc["fault.evac_errors"] = float64(is.EvacErrors)
	}

	rec := a.Recorder()
	lc["metrics.footprint_bytes"] = float64(rec.FootprintBytes())
	recorded := float64(rec.Count() + rec.FailedCount())
	if rec.Backend() == metrics.Streaming {
		lc["metrics.recorded_streaming"] = recorded
	} else {
		lc["metrics.recorded_exact"] = recorded
	}
	return lc
}

// wearRounds is how many times wearProbe scans every FIMM.
const wearRounds = 8

// wearProbe times ftl.Wear on the finished array, whose FTL holds the
// touched-block maps the run left, over every FIMM wearRounds times.
func wearProbe(lc layerCounts, a *array.Array) {
	g := a.Config().Geometry
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	t0 := time.Now()
	calls := 0
	for r := 0; r < wearRounds; r++ {
		for f := 0; f < g.TotalFIMMs(); f++ {
			a.FTL().Wear(topo.FIMMFromFlat(g, f))
			calls++
		}
	}
	lc["ftl.wear_probe_ns"] = float64(time.Since(t0).Nanoseconds())
	runtime.ReadMemStats(&ms)
	lc["ftl.wear_probe_mallocs"] = float64(ms.Mallocs - before)
	lc["ftl.wear_probe_calls"] = float64(calls)
}
