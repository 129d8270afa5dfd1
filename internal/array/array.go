package array

import (
	"fmt"

	"triplea/internal/cluster"
	"triplea/internal/decision"
	"triplea/internal/ftl"
	"triplea/internal/metrics"
	"triplea/internal/nand"
	"triplea/internal/pcie"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/units"
)

// PageComplete describes one finished page command, delivered to the
// manager hook so it can run the paper's detection equations.
type PageComplete struct {
	LPN     int64
	Op      trace.Op
	Pages   units.Pages
	Cluster topo.ClusterID
	FIMM    int
	Result  cluster.OpResult // device-level timing (Equation 1's tLatency)
}

// Hooks is the attachment point for the autonomic manager. A nil hook
// set yields the non-autonomic baseline.
type Hooks interface {
	// OnPageComplete fires after every page command finishes at the
	// host. The manager runs hot-cluster and laggard detection here.
	OnPageComplete(pc PageComplete)
	// WriteTarget lets the manager redirect a host write (data-layout
	// reshaping for stalled writes); return resident to keep placement.
	WriteTarget(lpn int64, resident topo.FIMMID) topo.FIMMID
}

// Array is one simulated all-flash array instance.
type Array struct {
	eng *simx.Engine
	cfg Config
	ftl *ftl.FTL

	rc       *pcie.RootComplex
	switches []*pcie.Switch
	eps      [][]*cluster.Endpoint // [switch][cluster]

	// Fabric link registries (fault injection targets them directly).
	epDown [][]*pcie.Link // switch -> endpoint, [switch][cluster]
	epUp   [][]*pcie.Link // endpoint -> switch
	swDown []*pcie.Link   // rc -> switch
	swUp   []*pcie.Link   // switch -> rc

	// Degraded-mode state (fault.go). health always exists; the fault
	// branches below are gated on faultsArmed, which only the injector
	// sets.
	health        *topo.Health
	faultsArmed   bool
	recoverFaults bool
	faultCtrs     faultCounters // registry-backed (fault.go)

	recorder *metrics.Recorder
	// decisions is the autonomic decision flight recorder; nil unless
	// Config.Decisions selects the ring backend (decision hooks are
	// nil-receiver-safe, so the off path is one nil check).
	decisions *decision.Recorder
	hooks     Hooks
	cache     *dramCache // relocated host DRAM (Section 6.6)

	nextReqID   uint64
	inFlight    int
	gc          []gcWorker // per flat FIMM id
	gcNow       ftl.GCPlan // runGCNow's plan, refilled each call
	gcRounds    uint64
	gcDeferrals uint64
	migrations  uint64
	moving      int // MigratePage moves that have not reported yet
	readRetries uint64

	// Write-buffer coherence and program sequencing: one record per
	// erase block (keyed by BlockKey) with programs in flight; see
	// blockBuf. Idle records wait on freeBuf for reuse.
	bufs    map[topo.PPN]*blockBuf
	freeBuf *blockBuf

	// Per-cluster shared-bus utilisation samplers for contention-cause
	// attribution (rolled every cluster.BusSampleWindow).
	busUtil []cluster.BusSampler

	// RC admission (the RC stall of Figure 15): rcFree counts free RC
	// queue entries, one per admitted page command. Pages that find none
	// wait FIFO as runs of consecutive pages of one request.
	rcFree   int
	waitHead *waitRun
	waitTail *waitRun

	// Steady-state object pools (single-threaded free-lists). Packets
	// and commands are shared with the endpoints so completions recycle
	// what the host retires.
	pktPool pcie.Pool
	cmdPool cluster.CommandPool
	freeReq *request
	freeRef *pageRef
	freeRun *waitRun
}

// New builds an array on a fresh engine.
func New(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := simx.NewEngine()
	recorder := metrics.NewRecorderWith(cfg.Metrics, metrics.DefaultSustainedWindow)
	var dec *decision.Recorder
	if cfg.Decisions == decision.Ring {
		dec = decision.NewRecorder(cfg.Geometry.TotalClusters())
	}
	a := &Array{
		eng:       eng,
		cfg:       cfg,
		decisions: dec,
		ftl:       ftl.New(cfg.Geometry, ftl.WithLayout(cfg.Layout), ftl.WithGCThreshold(cfg.GCThreshold)),
		recorder:  recorder,
		faultCtrs: newFaultCounters(recorder.Registry()),
		rcFree:    cfg.RCQueueEntries,
		gc:        make([]gcWorker, cfg.Geometry.TotalFIMMs()),
		bufs:      make(map[topo.PPN]*blockBuf),
		busUtil:   make([]cluster.BusSampler, cfg.Geometry.TotalClusters()),
		cache:     newDRAMCache(units.BytesToPages(cfg.HostDRAMBytes, cfg.Geometry.Nand.PageSizeBytes)),
		health:    topo.NewHealth(cfg.Geometry),
	}
	for i := range a.gc {
		a.gc[i] = gcWorker{arr: a, id: topo.FIMMFromFlat(cfg.Geometry, i)}
	}
	a.ftl.SetDecisions(dec, eng.Now)
	a.build()
	return a, nil
}

// CacheStats reports host DRAM cache activity (Section 6.6).
func (a *Array) CacheStats() CacheStats { return a.cache.stats() }

// clusterBusUtil samples a cluster's shared-bus utilisation over a
// rolling window.
func (a *Array) clusterBusUtil(id topo.ClusterID) float64 {
	return a.busUtil[id.Flat(&a.cfg.Geometry)].Sample(a.Endpoint(id))
}

// build wires the fabric: RC -> switches -> endpoints, both directions.
func (a *Array) build() {
	cfg := a.cfg
	g := cfg.Geometry

	a.rc = pcie.NewRootComplex(a.eng, cfg.RCRouteLatency,
		func(pkt *pcie.Packet) int { return topo.ClusterAt(pkt.Addr).Switch },
		a.deliver)

	for s := 0; s < g.Switches; s++ {
		s := s
		sw := pcie.NewSwitch(a.eng, "switch", cfg.SwitchRouteLatency,
			func(pkt *pcie.Packet) int {
				id := topo.ClusterAt(pkt.Addr)
				if pkt.Kind == pcie.Completion || id.Switch != s {
					return pcie.Upstream
				}
				return id.Cluster
			})
		a.switches = append(a.switches, sw)

		// RC <-> switch links.
		down := pcie.NewLink(a.eng, "rc->switch",
			cfg.SwitchLinkBytesPerSec, cfg.LinkPropagation, cfg.SwitchLinkCredits, sw)
		a.rc.AddPort(down)
		a.swDown = append(a.swDown, down)
		up := pcie.NewLink(a.eng, "switch->rc",
			cfg.SwitchLinkBytesPerSec, cfg.LinkPropagation, cfg.SwitchLinkCredits, a.rc)
		sw.SetUpstream(up)
		a.swUp = append(a.swUp, up)

		// Switch <-> endpoint links.
		var row []*cluster.Endpoint
		var downRow, upRow []*pcie.Link
		for c := 0; c < g.ClustersPerSwitch; c++ {
			id := topo.ClusterID{Switch: s, Cluster: c}
			ep := cluster.New(a.eng, id, cfg.clusterParamsFor(id))
			swDown := pcie.NewLink(a.eng, "switch->endpoint",
				cfg.EPLinkBytesPerSec, cfg.LinkPropagation, cfg.EPLinkCredits, ep)
			sw.AddDownstream(swDown)
			epUp := pcie.NewLink(a.eng, "endpoint->switch",
				cfg.EPLinkBytesPerSec, cfg.LinkPropagation, cfg.EPLinkCredits, sw)
			ep.SetUpstream(epUp)
			ep.SetPacketPool(&a.pktPool)
			row = append(row, ep)
			downRow, upRow = append(downRow, swDown), append(upRow, epUp)
		}
		a.eps = append(a.eps, row)
		a.epDown, a.epUp = append(a.epDown, downRow), append(a.epUp, upRow)
	}
}

// Engine exposes the simulation engine (experiments advance it).
func (a *Array) Engine() *simx.Engine { return a.eng }

// Config returns the build configuration.
func (a *Array) Config() Config { return a.cfg }

// FTL exposes the global translation layer.
func (a *Array) FTL() *ftl.FTL { return a.ftl }

// Recorder exposes the metrics recorder.
func (a *Array) Recorder() *metrics.Recorder { return a.recorder }

// Decisions exposes the decision flight recorder; nil when recording
// is off (Config.Decisions == decision.Off). The manager and the fault
// injector pick it up on attach.
func (a *Array) Decisions() *decision.Recorder { return a.decisions }

// Endpoint returns one cluster endpoint.
func (a *Array) Endpoint(id topo.ClusterID) *cluster.Endpoint {
	return a.eps[id.Switch][id.Cluster]
}

// Switch returns one switch (for fabric statistics).
func (a *Array) Switch(i int) *pcie.Switch { return a.switches[i] }

// RootComplex returns the RC (for fabric statistics).
func (a *Array) RootComplex() *pcie.RootComplex { return a.rc }

// SetHooks attaches the autonomic manager. Must be called before Run.
func (a *Array) SetHooks(h Hooks) { a.hooks = h }

// InFlight reports outstanding host requests.
func (a *Array) InFlight() int { return a.inFlight }

// GCRounds reports completed garbage-collection rounds.
func (a *Array) GCRounds() uint64 { return a.gcRounds }

// GCDeferrals reports how often opportunistic scheduling postponed a
// collection round to an idle window.
func (a *Array) GCDeferrals() uint64 { return a.gcDeferrals }

// Migrations reports completed page migrations (autonomic data
// migration + data-layout reshaping moves).
func (a *Array) Migrations() uint64 { return a.migrations }

// pkgAt resolves a PPN to its NAND package.
func (a *Array) pkgAt(ppn topo.PPN) *nand.Package {
	return a.eps[ppn.Switch()][ppn.Cluster()].FIMM(ppn.FIMMSlot()).Package(ppn.Pkg())
}

// Prepare checks that every request is well-formed and addresses only
// pages inside the array, then installs the pre-existing data
// footprint for a trace: every page that is read is prepopulated in
// the FTL and force-populated on its device, so reads find real flash
// pages (costing no simulated time — the data predates the experiment).
func (a *Array) Prepare(reqs []trace.Request) error {
	total := a.cfg.Geometry.TotalPages().Int64()
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("array: request %d (%v LPN %d, %d pages) is malformed: %w",
				i, r.Op, r.LPN, r.Pages, err)
		}
		// LPN+Pages > total, written so it cannot overflow.
		if r.LPN > total-r.Pages.Int64() {
			return fmt.Errorf("array: request %d (%v LPN %d, %d pages) is outside the array's pages [0,%d)",
				i, r.Op, r.LPN, r.Pages, total)
		}
		if r.Op != trace.Read {
			continue
		}
		for p := int64(0); p < r.Pages.Int64(); p++ {
			if _, err := a.ensureMapped(r.LPN + p); err != nil {
				return err
			}
		}
	}
	return nil
}

// ensureMapped prepopulates one LPN if needed and reports its PPN.
// The device populate must respect its block's program order: when
// programs of the block are in flight (the FTL placed the page
// dynamically, in a block still being written), it waits at the
// per-block gate those programs hold, completing instantly when its
// turn comes. Otherwise it completes in place.
func (a *Array) ensureMapped(lpn int64) (topo.PPN, error) {
	ppn, need, err := a.ftl.Prepopulate(lpn)
	if err != nil || !need {
		return ppn, err
	}
	if b := a.bufs[ppn.BlockKey()]; b != nil && b.busy {
		a.launchProgram(a.buffer(ppn), &populate{arr: a, ppn: ppn, buf: b})
	} else {
		a.forcePopulate(ppn)
	}
	return ppn, nil
}

// forcePopulate programs a prepopulated page on its device at no
// simulated cost.
func (a *Array) forcePopulate(ppn topo.PPN) {
	if err := a.pkgAt(ppn).ForcePopulate(ppn.NandAddr(&a.cfg.Geometry)); err != nil {
		panic(fmt.Sprintf("array: prepopulate: %v", err))
	}
}

// populate is a prepopulated page parked at its block's gate.
type populate struct {
	arr *Array
	ppn topo.PPN
	buf *blockBuf
}

// launch implements launcher: the page's turn came, so it programs
// instantly.
func (p *populate) launch() {
	a := p.arr
	a.forcePopulate(p.ppn)
	if p.buf.flushed(p.ppn.Page()) {
		a.staleDeviceNow(p.ppn)
	}
	a.releaseGate(p.ppn.BlockKey(), p.buf)
}

// Run replays a trace to completion and returns the recorder. The
// trace must be sorted by arrival time.
func (a *Array) Run(reqs []trace.Request) (*metrics.Recorder, error) {
	// Snapshot the simcheck leak ledger so the end-of-run drain check
	// below compares against whatever other engines in this process
	// already hold. Without -tags simcheck both calls are no-ops.
	drainSnap := simx.SnapshotLedger()
	if err := a.Prepare(reqs); err != nil {
		return nil, err
	}
	a.recorder.Reserve(len(reqs))
	// Schedule arrivals lazily: each arrival schedules the next, so the
	// event heap stays small for million-request traces. The feeder is a
	// single reusable Handler — one pooled event per arrival, zero
	// closures.
	f := &arrivalFeeder{arr: a, reqs: reqs}
	f.scheduleNext(0)
	a.eng.Run()
	// A continuation chain that broke leaves its work unfinished with
	// nothing left to schedule.
	if a.inFlight != 0 {
		return nil, fmt.Errorf("array: %d requests still in flight after drain", a.inFlight)
	}
	for i := range a.gc {
		if a.gc[i].active {
			return nil, fmt.Errorf("array: GC on %v still active after drain", a.gc[i].id)
		}
	}
	if a.moving != 0 {
		return nil, fmt.Errorf("array: %d page migrations never reported after drain", a.moving)
	}
	// Every pooled object minted during the run (events, waiters,
	// packets, commands, request/pageRef nodes, device op states) must
	// be back on its free-list now; a leak fails the run with the
	// pool's name and outstanding count.
	if err := simx.AssertDrained(drainSnap); err != nil {
		return nil, err
	}
	return a.recorder, nil
}

// arrivalFeeder injects trace requests one at a time: each arrival
// event submits request arg and schedules the next. A single feeder
// instance serves the whole run.
type arrivalFeeder struct {
	arr  *Array
	reqs []trace.Request
}

// scheduleNext books the arrival event for request i (clamped to now
// for out-of-order or past timestamps).
func (f *arrivalFeeder) scheduleNext(i int) {
	if i >= len(f.reqs) {
		return
	}
	at := f.reqs[i].Arrival
	if at < f.arr.eng.Now() {
		at = f.arr.eng.Now()
	}
	f.arr.eng.AtEvent(at, f, uint64(i))
}

// OnEvent implements simx.Handler: request arg arrives.
func (f *arrivalFeeder) OnEvent(arg uint64) {
	f.arr.Submit(f.reqs[arg])
	f.scheduleNext(int(arg) + 1)
}

// request tracks one host request across its page commands. Requests
// are pooled; a node is drawn when the request's first page is
// admitted or hits the host DRAM cache, and recycles when its last page
// completes. The simx.Handler implementation serves the host-DRAM-hit
// path: each hit page schedules one event that retires it after the
// hit latency.
type request struct {
	arr    *Array
	id     uint64
	pages  units.Pages
	submit simx.Time
	remain units.Pages
	agg    metrics.Breakdown
	op     trace.Op
	failed bool     // a page command was terminated by a fault
	next   *request // free-list link
	ck     simx.PoolCheck
}

// OnEvent implements simx.Handler: a host-DRAM cache hit completes.
func (req *request) OnEvent(arg uint64) {
	req.arr.finishPage(req, metrics.Breakdown{})
}

// pageRef links an admitted page command back to its request and
// downstream packet. Refs are pooled per-page continuations: one is
// drawn when its page takes an RC queue entry and launches through the
// per-block program gate (launcher).
type pageRef struct {
	arr       *Array
	req       *request
	lpn       int64
	down      *pcie.Packet
	admitWait simx.Time
	retries   int
	next      *pageRef // free-list link
	ck        simx.PoolCheck
}

// launch implements launcher: inject the page's packet at the RC.
func (ref *pageRef) launch() {
	ref.arr.rc.Inject(ref.down)
}

// waitRun is a run of consecutive pages of one host request waiting
// for RC queue entries. A request that finds the RC queue full queues
// one run, or one per stretch of cache misses when host DRAM hits
// split it. The run carries what it takes to draw the request when its
// first page is admitted.
type waitRun struct {
	req    *request // nil until a page of the request is admitted or hits
	id     uint64
	submit simx.Time // a page's RC stall is its admission time minus this
	pages  units.Pages
	lpn    int64 // the run's next page
	left   int64 // pages of the run still waiting
	op     trace.Op
	ck     simx.PoolCheck // not last: a trailing zero-size field pads the record to 72 bytes
	next   *waitRun       // queue or free-list link
}

func (a *Array) newReq(id uint64, op trace.Op, pages units.Pages, submit simx.Time) *request {
	r := a.freeReq
	if r != nil {
		a.freeReq = r.next
		r.ck.Checkout("array.request")
		*r = request{arr: a}
	} else {
		r = &request{arr: a}
		r.ck.Fresh("array.request")
	}
	r.id, r.op, r.pages, r.submit, r.remain = id, op, pages, submit, pages
	return r
}

func (a *Array) recycleReq(r *request) {
	r.ck.Release("array.request")
	r.next = a.freeReq
	a.freeReq = r
}

func (a *Array) newRef(req *request, lpn int64) *pageRef {
	ref := a.freeRef
	if ref != nil {
		a.freeRef = ref.next
		ref.ck.Checkout("array.pageRef")
		*ref = pageRef{arr: a}
	} else {
		ref = &pageRef{arr: a}
		ref.ck.Fresh("array.pageRef")
	}
	ref.req, ref.lpn = req, lpn
	return ref
}

func (a *Array) recycleRef(ref *pageRef) {
	ref.req, ref.down = nil, nil
	ref.ck.Release("array.pageRef")
	ref.next = a.freeRef
	a.freeRef = ref
}

// queueRun appends a run of request id (r, drawn as req if it exists)
// starting at lpn to the RC wait queue.
func (a *Array) queueRun(req *request, id uint64, r trace.Request, lpn int64) *waitRun {
	w := a.freeRun
	if w != nil {
		a.freeRun = w.next
		w.ck.Checkout("array.waitRun")
		w.next = nil
	} else {
		w = &waitRun{}
		w.ck.Fresh("array.waitRun")
	}
	w.req, w.id, w.op, w.pages, w.submit, w.lpn, w.left = req, id, r.Op, r.Pages, a.eng.Now(), lpn, 0
	if a.waitTail == nil {
		a.waitHead = w
	} else {
		a.waitTail.next = w
	}
	a.waitTail = w
	return w
}

// releaseRC frees a finished page's RC queue entry. The oldest waiting
// page takes it over and is admitted at once.
func (a *Array) releaseRC() {
	w := a.waitHead
	if w == nil {
		a.rcFree++
		return
	}
	if w.req == nil {
		w.req = a.newReq(w.id, w.op, w.pages, w.submit)
	}
	req, lpn, stall := w.req, w.lpn, a.eng.Now()-w.submit
	w.lpn++
	if w.left--; w.left == 0 {
		if a.waitHead = w.next; a.waitHead == nil {
			a.waitTail = nil
		}
		w.req = nil
		w.ck.Release("array.waitRun")
		w.next = a.freeRun
		a.freeRun = w
	}
	a.admitPage(req, lpn, stall)
}

// maxReadRetries bounds GC-race re-resolution; more than a couple in a
// row indicates a bookkeeping bug, not bad luck.
const maxReadRetries = 4

// retryRead re-resolves a raced read against the current mapping and
// re-injects it, keeping its RC queue entry.
func (a *Array) retryRead(ref *pageRef) {
	ppn, ok := a.ftl.Lookup(ref.lpn)
	if !ok {
		// Under a fault plan a mapping can legitimately vanish mid-read
		// (its page was destroyed); restore it from the shadow clone and
		// retry against the new location.
		if a.faultsArmed {
			ppn, ok = a.restoreLostRead(ref)
		}
		if !ok {
			panic(fmt.Sprintf("array: raced read of LPN %d lost its mapping", ref.lpn))
		}
	}
	a.readRetries++
	cmd := a.command(cluster.OpRead, ppn, nil)
	cmd.BufferHit = a.buffered(ppn)
	cmd.Meta = ref
	pkt := a.pktPool.Get()
	pkt.ID, pkt.Kind, pkt.Addr = ref.req.id, pcie.MemRead, ppn.ClusterID().Addr()
	pkt.Meta = cmd
	ref.down = pkt
	a.rc.Inject(pkt)
}

// Submit enters one host request at the current simulated time. Each
// page command takes one RC queue entry; a page that finds none waits
// for one in arrival order, and that wait is the RC stall of Figure 15.
func (a *Array) Submit(r trace.Request) {
	if err := r.Validate(); err != nil {
		panic(err)
	}
	a.nextReqID++
	a.inFlight++
	id, now := a.nextReqID, a.eng.Now()
	// req is drawn by the request's first admitted or hit page; run is
	// the run its pages are queuing on, ended by a hit. Once one page
	// waits, every later miss of the request waits too.
	var req *request
	var run *waitRun
	for p := int64(0); p < r.Pages.Int64(); p++ {
		lpn := r.LPN + p
		// Relocated host DRAM hit (Section 6.6): served at the management
		// module, never entering the flash array network.
		hit := r.Op == trace.Read && a.cache.lookup(lpn)
		if r.Op == trace.Write {
			a.cache.install(lpn)
		}
		if !hit && a.rcFree == 0 {
			if run == nil {
				run = a.queueRun(req, id, r, lpn)
			}
			run.left++
			continue
		}
		if req == nil {
			req = a.newReq(id, r.Op, r.Pages, now)
			if run != nil {
				run.req = req // a hit after waiting pages
			}
		}
		if hit {
			a.eng.ScheduleEvent(hostDRAMHitLatency, req, 0)
			run = nil
			continue
		}
		a.rcFree--
		a.admitPage(req, lpn, 0)
	}
}

// admitPage gives one page of req an RC queue entry after stall spent
// waiting for it: it resolves the page's physical location and injects
// its packet at the root complex.
func (a *Array) admitPage(req *request, lpn int64, stall simx.Time) {
	var ppn topo.PPN
	var kind pcie.Kind
	var payload units.Bytes
	var op cluster.Op
	bufferHit := false

	switch req.op {
	case trace.Read:
		var err error
		if ppn, err = a.ensureMapped(lpn); err != nil {
			panic(fmt.Sprintf("array: read mapping: %v", err))
		}
		kind, op = pcie.MemRead, cluster.OpRead
		bufferHit = a.buffered(ppn)
	case trace.Write:
		target := a.ftl.ResidentFIMM(lpn)
		if a.hooks != nil {
			target = a.hooks.WriteTarget(lpn, target)
		}
		if a.faultsArmed {
			target = a.redirectWrite(lpn, target)
		}
		wa, err := a.ftl.AllocateWriteAt(lpn, target)
		if err != nil {
			// Target FIMM out of space: force a synchronous GC plan on
			// it, then retry once; persistent failure is a sizing bug.
			a.runGCNow(target)
			wa, err = a.ftl.AllocateWriteAt(lpn, target)
			if err != nil {
				panic(fmt.Sprintf("array: write allocation: %v", err))
			}
		}
		if wa.HasOld {
			a.markStaleDevice(wa.Old)
		}
		ppn = wa.New
		kind, op = pcie.MemWrite, cluster.OpWrite
		payload = a.cfg.Geometry.Nand.PageSizeBytes
	}

	ref := a.newRef(req, lpn)
	ref.admitWait = stall
	cmd := a.command(op, ppn, nil)
	cmd.BufferHit = bufferHit
	cmd.Meta = ref
	var buf *blockBuf
	if op == cluster.OpWrite {
		buf = a.trackFlush(ppn, cmd)
	}
	pkt := a.pktPool.Get()
	pkt.ID, pkt.Kind, pkt.Addr, pkt.Payload = req.id, kind, ppn.ClusterID().Addr(), payload
	pkt.Meta = cmd
	ref.down = pkt
	if op == cluster.OpWrite {
		a.launchProgram(buf, ref)
	} else {
		ref.launch()
	}

	// Kick background GC if this write pressured its FIMM.
	if req.op == trace.Write && a.ftl.GCPressure(ppn.FIMMID()) {
		a.startGC(ppn.FIMMID())
	}
}

// command draws a pooled device command for the page at ppn. A
// command with a Done receiver is background work (GC, migration): it
// reports to done and sends no completion to the host.
func (a *Array) command(op cluster.Op, ppn topo.PPN, done cluster.DoneH) *cluster.Command {
	cmd := a.cmdPool.Get()
	cmd.Op = op
	cmd.FIMM, cmd.Pkg = ppn.FIMMSlot(), ppn.Pkg()
	cmd.SetPageAddr(ppn.NandAddr(&a.cfg.Geometry))
	cmd.Done = done
	cmd.Background = done != nil
	return cmd
}

// launcher starts a gated page program (hands the command to its
// transport): the host write's pageRef, a GC worker's relocation, a
// migration's destination program, or a prepopulated page.
type launcher interface {
	launch()
}

// blockBuf is the write-buffer record of one erase block while any of
// its page programs is in flight: allocated, buffered in an endpoint,
// or queued at the block's gate.
//
//   - Coherence: a read of a buffered page is served from the endpoint
//     buffer, a block with buffered pages is vetoed as a GC victim, and
//     a stale-mark on a buffered page waits for its flush.
//   - Sequencing: NAND requires pages to program in order inside a
//     block, but writes to one block can be allocated by different
//     actors (host flush, GC, migration) whose transports reorder them.
//     The gate launches the block's programs in allocation order, the
//     next one only after the previous one flushed.
type blockBuf struct {
	buffered pageSet    // pages whose program has not flushed
	stale    pageSet    // buffered pages whose stale-mark waits for the flush
	pending  int        // buffered pages
	busy     bool       // a launched program has not flushed yet
	waiting  []launcher // programs queued behind it, in allocation order
	next     *blockBuf  // free-list link
}

// pageSet is a bitmap over the pages of one block.
type pageSet []uint64

func (s pageSet) add(page int)      { s[page/64] |= 1 << (page % 64) }
func (s pageSet) remove(page int)   { s[page/64] &^= 1 << (page % 64) }
func (s pageSet) has(page int) bool { return s[page/64]&(1<<(page%64)) != 0 }

// buffer registers an in-flight program of ppn and returns its block's
// record, taking one off the free-list if the block has none.
func (a *Array) buffer(ppn topo.PPN) *blockBuf {
	bk := ppn.BlockKey()
	b := a.bufs[bk]
	if b == nil {
		if b = a.freeBuf; b != nil {
			a.freeBuf, b.next = b.next, nil
		} else {
			words := (a.cfg.Geometry.Nand.PagesPerBlock.Int() + 63) / 64
			b = &blockBuf{buffered: make(pageSet, words), stale: make(pageSet, words)}
		}
		a.bufs[bk] = b
	}
	b.buffered.add(ppn.Page())
	b.pending++
	return b
}

// flushed retires a buffered page and reports whether a stale-mark was
// deferred to its flush.
func (b *blockBuf) flushed(page int) (staleDeferred bool) {
	b.buffered.remove(page)
	b.pending--
	staleDeferred = b.stale.has(page)
	b.stale.remove(page)
	return staleDeferred
}

// buffered reports whether ppn's program is still buffered in its
// endpoint.
func (a *Array) buffered(ppn topo.PPN) bool {
	b := a.bufs[ppn.BlockKey()]
	return b != nil && b.buffered.has(ppn.Page())
}

// launchProgram starts a page program of block b respecting per-block
// allocation order: the next program for a block leaves the host only
// after the previous one flushed.
func (a *Array) launchProgram(b *blockBuf, l launcher) {
	if b.busy {
		b.waiting = append(b.waiting, l)
		return
	}
	b.busy = true
	l.launch()
}

// releaseGate lets block bk's next queued program launch. Once the
// gate is idle and nothing is buffered, the record goes back on the
// free-list.
func (a *Array) releaseGate(bk topo.PPN, b *blockBuf) {
	if len(b.waiting) > 0 {
		next := b.waiting[0]
		b.waiting[0] = nil
		b.waiting = b.waiting[:copy(b.waiting, b.waiting[1:])]
		next.launch()
		return
	}
	b.busy = false
	if b.pending == 0 {
		delete(a.bufs, bk)
		a.freeBuf, b.next = b, a.freeBuf
	}
}

// trackFlush registers an in-flight page program and arranges its
// retirement when the endpoint flush completes (OnCommandFlushed). It
// returns the block's record for launchProgram.
func (a *Array) trackFlush(ppn topo.PPN, cmd *cluster.Command) *blockBuf {
	cmd.FlushPPN = ppn
	cmd.Flushed = a
	return a.buffer(ppn)
}

// OnCommandFlushed implements cluster.FlushedH: a tracked page program
// reached flash (the write-buffer eviction point). This is also the
// write command's release point — for host writes the command recycles
// once both retirement events (ack delivery, flush) have happened; for
// background writes Done has already run, so it recycles here.
func (a *Array) OnCommandFlushed(c *cluster.Command) {
	ppn := c.FlushPPN
	failed := c.Result.Err != nil
	if failed && !(a.faultsArmed && isFaultError(c.Result.Err)) {
		panic(fmt.Sprintf("array: flush of %v failed: %v", ppn, c.Result.Err))
	}
	bk := ppn.BlockKey()
	b := a.bufs[bk]
	// A failed flush never programmed the page, so there is no device
	// page to stale-mark; a deferred mark just evaporates.
	if b.flushed(ppn.Page()) && !failed {
		a.staleDeviceNow(ppn)
	}
	if failed {
		a.failFlushedWrite(ppn)
	}
	if c.Background || c.RetireMark {
		a.cmdPool.Put(c)
	} else {
		c.RetireMark = true
	}
	a.releaseGate(bk, b)
}

// markStaleDevice mirrors an FTL stale-mark onto the device page,
// deferring it when the page's program is still buffered.
func (a *Array) markStaleDevice(ppn topo.PPN) {
	if b := a.bufs[ppn.BlockKey()]; b != nil && b.buffered.has(ppn.Page()) {
		b.stale.add(ppn.Page())
		return
	}
	a.staleDeviceNow(ppn)
}

func (a *Array) staleDeviceNow(ppn topo.PPN) {
	if err := a.pkgAt(ppn).MarkStale(ppn.NandAddr(&a.cfg.Geometry)); err != nil {
		panic(fmt.Sprintf("array: device stale-mark: %v", err))
	}
}

// deliver receives completion packets at the root complex and finalises
// their page commands.
func (a *Array) deliver(pkt *pcie.Packet) {
	if pkt.Kind != pcie.Completion {
		// Cross-switch background transfer: send back downstream.
		a.rc.Inject(pkt)
		return
	}
	cmd, ok := pkt.Meta.(*cluster.Command)
	if !ok {
		panic("array: completion without command")
	}
	ref, ok := cmd.Meta.(*pageRef)
	if !ok {
		panic("array: command without page reference")
	}
	req := ref.req
	res := cmd.Result
	if cmd.Op == cluster.OpWrite {
		res = cmd.AckResult
	}
	if res.Err != nil {
		// A read can lose the race against garbage collection: its
		// physical address was erased while the command was in flight.
		// Re-resolve against the current mapping and retry. The stale
		// packets and command recycle first so the retry reuses them.
		// Under a fault plan the same retry path re-resolves reads whose
		// hardware died mid-flight (recovery remaps them elsewhere).
		if cmd.Op == cluster.OpRead && ref.retries < maxReadRetries {
			ref.retries++
			a.pktPool.Put(ref.down)
			a.pktPool.Put(pkt)
			a.cmdPool.Put(cmd)
			a.retryRead(ref)
			return
		}
		if a.faultsArmed && isFaultError(res.Err) {
			a.failPage(ref, pkt, cmd)
			return
		}
		panic(fmt.Sprintf("array: device error on req %d: %v", req.id, res.Err))
	}
	// The page is done with its ref: keep what the breakdown and the
	// hook read, and recycle it before its RC entry admits the next
	// waiting page, which draws a ref of its own.
	lpn, down, up := ref.lpn, ref.down, pkt
	var b metrics.Breakdown
	b.RCStall = ref.admitWait
	b.SwitchStall = down.CreditWait + down.WireWait + up.CreditWait + up.WireWait
	a.recycleRef(ref)
	a.releaseRC()

	b.EPWait = res.EPWait
	b.StorageWait = res.StorageWait
	b.LinkWait = res.LinkWait
	b.Texe = res.Texe
	b.LinkXfer = res.LinkXfer
	b.FabricXfer = down.WireTime + down.RouteTime + up.WireTime + up.RouteTime

	// Attribute the upstream backlog to its root cause: a saturated
	// shared bus at the target cluster is link contention (the paper's
	// classification); otherwise split by the device-side waits.
	clusterID := topo.ClusterAt(up.Addr)
	device := b.LinkWait + b.EPWait + b.StorageWait
	share := 0.0
	if device > 0 {
		share = float64(b.LinkWait) / float64(device)
	}
	if sat := (a.clusterBusUtil(clusterID) - 0.6) / 0.3; sat > share {
		share = sat
	}
	b.AttributeShare(share)

	if req.op == trace.Read {
		a.cache.install(lpn)
	}
	if a.hooks != nil {
		a.hooks.OnPageComplete(PageComplete{
			LPN:     lpn,
			Op:      req.op,
			Pages:   units.Page,
			Cluster: clusterID,
			FIMM:    cmd.FIMM,
			Result:  res,
		})
	}
	// Release points: both fabric packets are fully read (the breakdown
	// above holds copies). Read commands are done; a write command
	// recycles here only if its flush already retired (RetireMark
	// coordination with OnCommandFlushed).
	a.pktPool.Put(down)
	a.pktPool.Put(up)
	if cmd.Op == cluster.OpRead || cmd.RetireMark {
		a.cmdPool.Put(cmd)
	} else {
		cmd.RetireMark = true
	}
	a.finishPage(req, b)
}

// finishPage retires one page of a request, recording the request when
// its last page completes.
func (a *Array) finishPage(req *request, b metrics.Breakdown) {
	req.agg.Add(b)
	req.remain--
	if req.remain > 0 {
		return
	}
	kind := metrics.Read
	if req.op == trace.Write {
		kind = metrics.Write
	}
	if req.failed {
		a.faultCtrs.requestsFailed.Inc()
		a.recorder.RecordFailure(metrics.Failure{
			ID:     req.id,
			Kind:   kind,
			Pages:  req.pages,
			Submit: req.submit,
			At:     a.eng.Now(),
		})
	} else {
		a.recorder.Record(metrics.Record{
			ID:        req.id,
			Kind:      kind,
			Pages:     req.pages,
			Submit:    req.submit,
			Complete:  a.eng.Now(),
			Breakdown: req.agg,
		})
	}
	a.inFlight--
	a.recycleReq(req)
}

// ReadRetries reports reads re-resolved after losing a race with
// garbage collection.
func (a *Array) ReadRetries() uint64 { return a.readRetries }

// CheckConsistency audits the array after (or during) a run: every
// mapped logical page must resolve to a physical page the device agrees
// is live (programmed, or still buffered in an endpoint), and the FTL's
// reverse lookup must agree with the forward map. It returns the first
// violation found — a debugging net for layout-reshaping code and a
// post-run assertion for tests.
func (a *Array) CheckConsistency() error {
	var err error
	a.ftl.ForEachMapping(func(lpn int64, ppn topo.PPN) bool {
		if back, ok := a.ftl.LPNOf(ppn); !ok || back != lpn {
			err = fmt.Errorf("array: reverse map of %v = (%d,%v), want LPN %d", ppn, back, ok, lpn)
			return false
		}
		if a.buffered(ppn) {
			return true // program still buffered; device state lags by design
		}
		if st := a.pkgAt(ppn).PageStateAt(ppn.NandAddr(&a.cfg.Geometry)); st != nand.PageValid {
			err = fmt.Errorf("array: LPN %d maps to %v in device state %v, want valid", lpn, ppn, st)
			return false
		}
		return true
	})
	return err
}
