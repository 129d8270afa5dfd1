package main

import (
	"runtime"
	"time"

	"triplea/internal/array"
	"triplea/internal/cluster"
	"triplea/internal/core"
	"triplea/internal/fimm"
	"triplea/internal/ftl"
	"triplea/internal/metrics"
	"triplea/internal/nand"
	"triplea/internal/pcie"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/units"
)

// The layer probes time one step of a request on the simulator's typed
// (zero-closure) path, built from the workload's own array config. None
// uses the closure API (Engine.Schedule, Resource.Acquire,
// pcie.AcceptedFunc). Probes nest the way layers do: a cluster command
// includes its FIMM op, which includes its NAND op and engine events.

// probeResult is a probe's host cost per operation.
type probeResult struct{ NS, Allocs float64 }

const (
	probeBatches  = 7
	probeBatchOps = 4096
)

// probe runs probeBatches batches of ops operations each. setup (untimed)
// prepares fresh state before each batch; op performs operation i. ns/op
// is the median over batches, allocs/op the mean over all of them.
func probe(ops int, setup func(), op func(i int)) probeResult {
	var nsPerOp []float64
	var mallocs uint64
	var ms runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		setup()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			op(i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		nsPerOp = append(nsPerOp, float64(el.Nanoseconds())/float64(ops))
	}
	return probeResult{NS: median(nsPerOp), Allocs: float64(mallocs) / float64(probeBatches*ops)}
}

// nopHandler is an event handler, grantee and completion receiver that
// does nothing.
type nopHandler struct{}

func (nopHandler) OnEvent(uint64)              {}
func (nopHandler) OnGrant(uint64, simx.Time)   {}
func (nopHandler) OnNandDone(simx.Time, error) {}
func (nopHandler) OnFIMMDone(fimm.Result)      {}

// creditSink receives packets at the end of a link and frees the
// credit at once; with pools set it also recycles what it receives.
type creditSink struct {
	pkts *pcie.Pool
	cmds *cluster.CommandPool
}

func (s *creditSink) Receive(pkt *pcie.Packet, from *pcie.Link) {
	from.ReturnCredit()
	if s.cmds != nil {
		s.cmds.Put(pkt.Meta.(*cluster.Command))
	}
	if s.pkts != nil {
		s.pkts.Put(pkt)
	}
}

// populated force-populates one page in each of n distinct blocks of a
// package, spread over its dies, and returns their addresses.
func populated(pk *nand.Package, p nand.Params, n int) []nand.Addr {
	blocks := p.BlocksPerPlane.Int() * p.PlanesPerDie
	addrs := make([]nand.Addr, 0, n)
	for i := 0; i < n; i++ {
		b := (i / p.DiesPerPackage) % blocks
		a := nand.Addr{Die: i % p.DiesPerPackage, Plane: b % p.PlanesPerDie, Block: b, Page: 0}
		if pk.PageStateAt(a) != nand.PageValid {
			if err := pk.ForcePopulate(a); err != nil {
				panic(err)
			}
		}
		addrs = append(addrs, a)
	}
	return addrs
}

// programOrder lists a package's pages in legal program order: every
// page of a block before the next block, blocks spread over dies.
func programOrder(p nand.Params, n int) []nand.Addr {
	blocks := p.BlocksPerPlane.Int() * p.PlanesPerDie
	pages := p.PagesPerBlock.Int()
	addrs := make([]nand.Addr, 0, n)
	for i := 0; len(addrs) < n; i++ {
		die, b := i%p.DiesPerPackage, (i/p.DiesPerPackage)%blocks
		for pg := 0; pg < pages && len(addrs) < n; pg++ {
			addrs = append(addrs, nand.Addr{Die: die, Plane: b % p.PlanesPerDie, Block: b, Page: pg})
		}
	}
	return addrs
}

// probeSet is every probe's result for one workload.
type probeSet map[string]probeResult

// runProbes builds and times every layer probe on cfg.
func runProbes(cfg array.Config) probeSet {
	ps := probeSet{}
	var h nopHandler
	page := cfg.Geometry.Nand.PageSizeBytes

	// Engine: schedule one typed event and fire it, over a heap holding
	// as many pending events as the RC admits page commands.
	var eng *simx.Engine
	ps["simx.schedule_fire"] = probe(probeBatchOps, func() {
		eng = simx.NewEngine()
		for i := 0; i < cfg.RCQueueEntries; i++ {
			eng.AtEvent(simx.Time(1)<<60, h, 0)
		}
	}, func(int) {
		eng.ScheduleEvent(simx.Nanosecond, h, 0)
		eng.Step()
	})

	// Resource: an immediate grant, a queued grant handed over by a
	// release, and the final release — two acquire/release pairs.
	var res *simx.Resource
	pr := probe(probeBatchOps, func() {
		res = simx.NewResource(simx.NewEngine(), "probe", 1)
	}, func(int) {
		res.AcquireG(h, 0)
		res.AcquireG(h, 0)
		res.Release()
		res.Release()
	})
	ps["simx.acquire_release"] = probeResult{pr.NS / 2, pr.Allocs / 2}

	// PCI-E link hop: send a page-sized packet over an endpoint link
	// and deliver it.
	var link *pcie.Link
	pkt := &pcie.Packet{Kind: pcie.MemWrite, Payload: page}
	ps["pcie.link_hop"] = probe(probeBatchOps, func() {
		eng = simx.NewEngine()
		link = pcie.NewLink(eng, "probe", cfg.EPLinkBytesPerSec, cfg.LinkPropagation, cfg.EPLinkCredits, &creditSink{})
	}, func(int) {
		link.Send(pkt, nil)
		eng.Run()
	})

	// Switch forward: route a packet and send it down its egress link
	// (the probe includes that egress hop).
	var sw *pcie.Switch
	ps["pcie.switch_forward"] = probe(probeBatchOps, func() {
		eng = simx.NewEngine()
		sw = pcie.NewSwitch(eng, "probe", cfg.SwitchRouteLatency, func(*pcie.Packet) int { return 0 })
		sw.AddDownstream(pcie.NewLink(eng, "probe.down", cfg.EPLinkBytesPerSec, cfg.LinkPropagation, cfg.EPLinkCredits, &creditSink{}))
	}, func(int) {
		sw.Receive(pkt, nil)
		eng.Run()
	})

	// Cluster command: one host page read through an endpoint (HAL,
	// FIMM read, staging, shared bus, completion packet upstream).
	arr, err := array.New(cfg)
	if err != nil {
		panic(err)
	}
	params := arr.Endpoint(topo.ClusterID{}).Params()
	nandP := params.FIMM.Nand
	var ep *cluster.Endpoint
	var pkts pcie.Pool
	var cmds cluster.CommandPool
	var addrs []nand.Addr
	ps["cluster.command"] = probe(probeBatchOps, func() {
		eng = simx.NewEngine()
		ep = cluster.New(eng, topo.ClusterID{}, params)
		ep.SetUpstream(pcie.NewLink(eng, "probe.up", cfg.EPLinkBytesPerSec, cfg.LinkPropagation, cfg.EPLinkCredits,
			&creditSink{pkts: &pkts, cmds: &cmds}))
		ep.SetPacketPool(&pkts)
		addrs = populated(ep.FIMM(0).Package(0), nandP, probeBatchOps)
	}, func(i int) {
		cmd := cmds.Get()
		cmd.Op = cluster.OpRead
		cmd.SetPageAddr(addrs[i])
		ep.Submit(cmd)
		eng.Run()
	})

	// FIMM op: one page read across the module's channel.
	var fm *fimm.FIMM
	ps["fimm.op"] = probe(probeBatchOps, func() {
		eng = simx.NewEngine()
		fm = fimm.New(eng, params.FIMM)
		addrs = populated(fm.Package(0), nandP, probeBatchOps)
	}, func(i int) {
		fm.ReadOp(0, addrs[i:i+1], h)
		eng.Run()
	})

	// NAND read and program on one package.
	var pk *nand.Package
	ps["nand.read"] = probe(probeBatchOps, func() {
		eng = simx.NewEngine()
		pk = nand.NewPackage(eng, nandP)
		addrs = populated(pk, nandP, probeBatchOps)
	}, func(i int) {
		pk.ReadOp(addrs[i:i+1], h)
		eng.Run()
	})
	order := programOrder(nandP, probeBatchOps)
	ps["nand.program"] = probe(probeBatchOps, func() {
		eng = simx.NewEngine()
		pk = nand.NewPackage(eng, nandP)
	}, func(i int) {
		pk.ProgramOp(order[i:i+1], h)
		eng.Run()
	})

	ftlProbes(ps, cfg)

	// One core decision: the Eq.1 and laggard checks for a host read
	// completing at nominal device latency on an idle array.
	mgr := core.Attach(arr, core.DefaultOptions())
	g := cfg.Geometry
	pc := array.PageComplete{
		Op: trace.Read, Pages: units.Page,
		Result: cluster.OpResult{Texe: nandP.TCmdOverhead + nandP.TRead + nandP.TECCPerPage},
	}
	ps["core.decision"] = probe(probeBatchOps, func() {}, func(i int) {
		pc.LPN = int64(i)
		pc.Cluster = topo.ClusterID{Switch: i % g.Switches, Cluster: (i / g.Switches) % g.ClustersPerSwitch}
		pc.FIMM = i % g.FIMMsPerCluster
		mgr.OnPageComplete(pc)
	})

	// Recorder.Record on each backend, one completed request at a time.
	for _, b := range []metrics.Backend{metrics.Exact, metrics.Streaming} {
		var rec *metrics.Recorder
		ps["metrics.record_"+b.String()] = probe(probeBatchOps, func() {
			rec = metrics.NewRecorderWith(b, metrics.DefaultSustainedWindow)
		}, func(i int) {
			at := simx.Time(i) * simx.Microsecond
			rec.Record(metrics.Record{ID: uint64(i), Kind: metrics.Read, Pages: units.Page, Submit: at,
				Complete: at + 80*simx.Microsecond})
		})
	}
	return ps
}

// ftlProbes times FTL write allocation and GC victim planning (the wear
// scan is timed on each finished array, see wearProbe). PlanGC needs a
// FIMM under GC pressure, which a probe can only reach on small blocks,
// so its FTL keeps the workload's geometry and threshold with each
// plane cut to at most 8 blocks of 16 pages (gc-overwrite's shape).
func ftlProbes(ps probeSet, cfg array.Config) {
	g := cfg.Geometry
	opts := []ftl.Option{ftl.WithLayout(cfg.Layout), ftl.WithGCThreshold(cfg.GCThreshold)}

	// Allocation: 4096 writes over 2048 fresh LPNs spread across the
	// array (a prime stride over a power-of-two page count), so half are
	// first writes and half overwrites.
	pages := int64(g.TotalFIMMs()*g.PackagesPerFIMM) * g.Nand.PagesPerPackage().Int64()
	var f *ftl.FTL
	ps["ftl.allocate"] = probe(probeBatchOps, func() {
		f = ftl.New(g, opts...)
	}, func(i int) {
		if _, err := f.AllocateWrite(int64(i%(probeBatchOps/2)) * 7919 % pages); err != nil {
			panic(err)
		}
	})

	small := g
	small.Nand.BlocksPerPlane = min(small.Nand.BlocksPerPlane, 8*units.Block)
	small.Nand.PagesPerBlock = min(small.Nand.PagesPerBlock, 16*units.Page)
	f = ftl.New(small, opts...)
	target := topo.FIMMID{}
	// Fill the FIMM with a working set of half its pages, then overwrite
	// it in a fixed stride until its emptiest unit wants GC.
	perFIMM := int64(small.PackagesPerFIMM*small.Nand.DiesPerPackage*small.Nand.PlanesPerDie) *
		int64(small.Nand.BlocksPerPlane.Int()*small.Nand.PagesPerBlock.Int())
	working := perFIMM / 2
	for i := int64(0); !f.GCPressure(target); i++ {
		if _, err := f.AllocateWriteAt((i*7919)%working, target); err != nil {
			panic(err)
		}
	}
	ps["ftl.plan_gc"] = probe(probeBatchOps/8, func() {}, func(int) {
		if _, ok := f.PlanGC(target, nil); !ok {
			panic("perfbench: probe FIMM has no GC victim")
		}
	})
}
