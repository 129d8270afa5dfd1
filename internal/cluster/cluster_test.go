package cluster

import (
	"strings"
	"testing"

	"triplea/internal/fimm"
	"triplea/internal/nand"
	"triplea/internal/pcie"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/units"
)

// defaultParams is the cluster these tests start from: four 64 GiB
// FIMMs behind one endpoint on a 16-pin 400 MHz DDR bus. Simulated
// arrays take their clusters from array.DefaultConfig instead.
func defaultParams() Params {
	return Params{
		NumFIMMs:        4,
		FIMM:            fimm.DefaultParams(),
		BusPins:         16 * units.Lane,
		BusMHz:          400,
		BusDDR:          true,
		QueueEntries:    64,
		FIMMQueueDepth:  8,
		WriteBufEntries: 64,
		StagingEntries:  32,
		HALLatency:      200 * simx.Nanosecond,
	}
}

func testParams() Params {
	p := defaultParams()
	p.NumFIMMs = 2
	p.FIMM.NumPackages = 2
	p.FIMM.Nand.BlocksPerPlane = 8
	p.FIMM.Nand.PagesPerBlock = 4
	return p
}

func id0() topo.ClusterID { return topo.ClusterID{Switch: 0, Cluster: 0} }

// populate force-programs a page so reads succeed.
func populate(t *testing.T, ep *Endpoint, f, pkg int, a nand.Addr) {
	t.Helper()
	if err := ep.FIMM(f).Package(pkg).ForcePopulate(a); err != nil {
		t.Fatalf("ForcePopulate: %v", err)
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := defaultParams().Validate(); err != nil {
		t.Fatalf("defaultParams invalid: %v", err)
	}
	// 16-pin 400 MHz DDR bus = 1.6 GB/s; 4 KiB page = 2560 ns.
	if got := defaultParams().BusPageTime(); got != 2560 {
		t.Errorf("BusPageTime = %v, want 2560ns", got)
	}
}

func TestParamsValidation(t *testing.T) {
	for _, mod := range []func(*Params){
		func(p *Params) { p.NumFIMMs = 0 },
		func(p *Params) { p.BusPins = 5 },
		func(p *Params) { p.BusMHz = 0 },
		func(p *Params) { p.QueueEntries = 0 },
		func(p *Params) { p.FIMMQueueDepth = 0 },
		func(p *Params) { p.WriteBufEntries = 0 },
		func(p *Params) { p.StagingEntries = 0 },
		func(p *Params) { p.HALLatency = -1 },
		func(p *Params) { p.FIMM.NumPackages = 0 },
	} {
		p := defaultParams()
		mod(&p)
		if p.Validate() == nil {
			t.Errorf("Validate accepted bad params")
		}
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpErase.String() != "erase" {
		t.Error("Op.String mismatch")
	}
}

func TestReadCompletesWithTiming(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	ep := New(eng, id0(), p)
	a := nand.Addr{}
	populate(t, ep, 0, 0, a)

	var done *Command
	start := eng.Now()
	ep.Submit(&Command{Op: OpRead, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{a},
		Done: doneFunc(func(c *Command) { done = c })})
	eng.Run()

	if done == nil {
		t.Fatal("read never completed")
	}
	if done.Result.Err != nil {
		t.Fatalf("read error: %v", done.Result.Err)
	}
	r := done.Result
	n := p.FIMM.Nand
	if r.Texe != n.TCmdOverhead+n.TRead+n.TECCPerPage {
		t.Errorf("Texe = %v", r.Texe)
	}
	wantXfer := p.FIMM.PageTransferTime() + p.BusPageTime()
	if r.LinkXfer != wantXfer {
		t.Errorf("LinkXfer = %v, want %v (channel + bus)", r.LinkXfer, wantXfer)
	}
	elapsed := eng.Now() - start
	if elapsed != r.DeviceLatency()+p.HALLatency {
		t.Errorf("elapsed %v != DeviceLatency %v + HAL %v", elapsed, r.DeviceLatency(), p.HALLatency)
	}
	if ep.Stats().Reads != 1 {
		t.Errorf("stats.Reads = %d", ep.Stats().Reads)
	}
}

func TestFIMMQueueDepthCausesEPWait(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	p.FIMMQueueDepth = 1
	p.FIMM.Nand.CacheOK = false
	ep := New(eng, id0(), p)
	a0, a1 := nand.Addr{Page: 0}, nand.Addr{Page: 1}
	populate(t, ep, 0, 0, a0)
	populate(t, ep, 0, 0, a1)

	var first, second *Command
	ep.Submit(&Command{Op: OpRead, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{a0},
		Done: doneFunc(func(c *Command) { first = c })})
	ep.Submit(&Command{Op: OpRead, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{a1},
		Done: doneFunc(func(c *Command) { second = c })})
	if got := ep.StalledPerFIMM(); got[0] != 1 || got[1] != 0 {
		t.Errorf("StalledPerFIMM = %v, want [1 0]", got)
	}
	if ep.QueueLen() != 1 {
		t.Errorf("QueueLen = %d, want 1", ep.QueueLen())
	}
	eng.Run()

	if first == nil || second == nil {
		t.Fatal("reads incomplete")
	}
	if first.Result.EPWait != 0 {
		t.Errorf("first EPWait = %v, want 0", first.Result.EPWait)
	}
	if second.Result.EPWait == 0 {
		t.Error("second read did not wait for the FIMM slot")
	}
	if ep.QueueLen() != 0 {
		t.Errorf("QueueLen = %d after drain", ep.QueueLen())
	}
}

func TestIndependentFIMMsDontQueue(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	p.FIMMQueueDepth = 1
	ep := New(eng, id0(), p)
	a := nand.Addr{}
	populate(t, ep, 0, 0, a)
	populate(t, ep, 1, 0, a)

	var r0, r1 *Command
	ep.Submit(&Command{Op: OpRead, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{a},
		Done: doneFunc(func(c *Command) { r0 = c })})
	ep.Submit(&Command{Op: OpRead, FIMM: 1, Pkg: 0, Addrs: []nand.Addr{a},
		Done: doneFunc(func(c *Command) { r1 = c })})
	eng.Run()
	if r0.Result.EPWait != 0 || r1.Result.EPWait != 0 {
		t.Errorf("EPWaits = %v, %v; different FIMMs should not queue on each other",
			r0.Result.EPWait, r1.Result.EPWait)
	}
	// But the shared bus serialises their transfers: one sees LinkWait.
	if r0.Result.LinkWait+r1.Result.LinkWait == 0 {
		t.Error("no link contention on the shared bus")
	}
}

func TestWriteEarlyAck(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	ep := New(eng, id0(), p)
	var ackAt simx.Time = -1
	ep.Submit(&Command{Op: OpWrite, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{{}},
		Done: doneFunc(func(c *Command) { ackAt = eng.Now() })})
	eng.Run()
	if ackAt != 0 {
		t.Errorf("write acked at %v, want immediate (buffered)", ackAt)
	}
	// The flush still happened: the page is programmed and stats count it.
	if ep.FIMM(0).Package(0).PageStateAt(nand.Addr{}) != nand.PageValid {
		t.Error("flush did not program the page")
	}
	if ep.Stats().Writes != 1 {
		t.Errorf("stats.Writes = %d", ep.Stats().Writes)
	}
}

func TestWriteBufferStall(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	p.WriteBufEntries = 1
	ep := New(eng, id0(), p)
	var acks []simx.Time
	for i := 0; i < 3; i++ {
		a := nand.Addr{Page: i}
		ep.Submit(&Command{Op: OpWrite, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{a},
			Done: doneFunc(func(c *Command) { acks = append(acks, eng.Now()) })})
	}
	eng.Run()
	if len(acks) != 3 {
		t.Fatalf("%d acks", len(acks))
	}
	if acks[0] != 0 {
		t.Errorf("first ack at %v", acks[0])
	}
	if acks[1] == 0 || acks[2] <= acks[1] {
		t.Errorf("later writes should stall for buffer evictions: %v", acks)
	}
	if ep.Stats().WriteBufStall == 0 {
		t.Error("WriteBufStall not accounted")
	}
}

func TestBackgroundWriteCompletesAfterProgram(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	ep := New(eng, id0(), p)
	var doneAt simx.Time = -1
	ep.Submit(&Command{Op: OpWrite, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{{}}, Background: true,
		Done: doneFunc(func(c *Command) { doneAt = eng.Now() })})
	eng.Run()
	if doneAt <= 0 {
		t.Errorf("background write completed at %v, want after program", doneAt)
	}
	if ep.Stats().BgWrites != 1 || ep.Stats().Writes != 0 {
		t.Errorf("stats = %+v", ep.Stats())
	}
}

func TestQueueFullDetection(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	p.QueueEntries = 2
	p.FIMMQueueDepth = 1
	p.FIMM.Nand.CacheOK = false
	ep := New(eng, id0(), p)
	for i := 0; i < 4; i++ {
		populate(t, ep, 0, 0, nand.Addr{Page: i})
	}
	for i := 0; i < 4; i++ {
		ep.Submit(&Command{Op: OpRead, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{{Page: i}}})
	}
	// 1 issued + 3 queued: queue (cap 2) is over capacity.
	if !ep.QueueFull() {
		t.Error("QueueFull = false with 3 queued, capacity 2")
	}
	if ep.Stats().QueueFullHits == 0 {
		t.Error("QueueFullHits not counted")
	}
	eng.Run()
}

func TestErase(t *testing.T) {
	eng := simx.NewEngine()
	ep := New(eng, id0(), testParams())
	var done *Command
	ep.Submit(&Command{Op: OpErase, Addrs: []nand.Addr{{}}, Background: true,
		Done: doneFunc(func(c *Command) { done = c })})
	eng.Run()
	if done == nil || done.Result.Err != nil {
		t.Fatalf("erase: done=%v", done)
	}
	if want := testParams().FIMM.Nand.TCmdOverhead + testParams().FIMM.Nand.TErase; done.Result.Texe != want {
		t.Errorf("erase Texe = %v, want %v", done.Result.Texe, want)
	}
	if ep.Stats().Erases != 1 {
		t.Errorf("stats.Erases = %d", ep.Stats().Erases)
	}
	// Erases bypass the endpoint queue and its accounting.
	if st := ep.Stats(); st.EPWaitNS != 0 || st.QueueFullHits != 0 || ep.QueueLen() != 0 {
		t.Errorf("erase touched the queue: %+v, queue %d", st, ep.QueueLen())
	}
	done = nil
	ep.Submit(&Command{Op: OpErase, FIMM: 9, Addrs: []nand.Addr{{}}, Background: true,
		Done: doneFunc(func(c *Command) { done = c })})
	if done == nil || done.Result.Err == nil {
		t.Error("out-of-range erase accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	eng := simx.NewEngine()
	ep := New(eng, id0(), testParams())
	var errs []error
	collect := func(c *Command) { errs = append(errs, c.Result.Err) }
	ep.Submit(&Command{Op: OpRead, FIMM: 9, Addrs: []nand.Addr{{}}, Done: doneFunc(collect)})
	ep.Submit(&Command{Op: OpRead, FIMM: 0, Done: doneFunc(collect)})
	eng.Run()
	if len(errs) != 2 || errs[0] == nil || errs[1] == nil {
		t.Fatalf("validation errors = %v", errs)
	}
	if !strings.Contains(errs[0].Error(), "out of range") {
		t.Errorf("err = %v", errs[0])
	}
}

func TestReadErrorReleasesSlot(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	p.FIMMQueueDepth = 1
	ep := New(eng, id0(), p)
	populate(t, ep, 0, 0, nand.Addr{})
	var bad, good *Command
	// First read hits an erased page (error), second is fine; the error
	// must release the FIMM slot so the second can issue.
	ep.Submit(&Command{Op: OpRead, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{{Page: 3}},
		Done: doneFunc(func(c *Command) { bad = c })})
	ep.Submit(&Command{Op: OpRead, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{{}},
		Done: doneFunc(func(c *Command) { good = c })})
	eng.Run()
	if bad == nil || bad.Result.Err == nil {
		t.Fatal("expected first read to fail")
	}
	if good == nil || good.Result.Err != nil {
		t.Fatalf("second read: %+v", good)
	}
}

func TestUpstreamCompletionPacket(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	ep := New(eng, id0(), p)
	populate(t, ep, 0, 0, nand.Addr{})

	var got []*pcie.Packet
	sink := recvFunc(func(pkt *pcie.Packet, from *pcie.Link) {
		got = append(got, pkt)
		from.ReturnCredit()
	})
	ep.SetUpstream(pcie.NewLink(eng, "up", 4_000_000_000, 100, 8, sink))

	cmd := &Command{Op: OpRead, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{{}}, Meta: "req-7"}
	ep.Submit(cmd)
	eng.Run()

	if len(got) != 1 {
		t.Fatalf("%d upstream packets, want 1", len(got))
	}
	pkt := got[0]
	if pkt.Kind != pcie.Completion || pkt.Payload != p.FIMM.Nand.PageSizeBytes {
		t.Errorf("completion = %v", pkt)
	}
	if pkt.Meta.(*Command) != cmd {
		t.Error("completion does not carry the command")
	}
}

// doneFunc adapts a function to DoneH.
type doneFunc func(*Command)

func (f doneFunc) OnCommandDone(c *Command) { f(c) }

// recvFunc adapts a function to pcie.Receiver.
type recvFunc func(*pcie.Packet, *pcie.Link)

func (f recvFunc) Receive(p *pcie.Packet, l *pcie.Link) { f(p, l) }

func TestReceiveFromLink(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	ep := New(eng, id0(), p)
	populate(t, ep, 0, 0, nand.Addr{})

	ingress := pcie.NewLink(eng, "in", 4_000_000_000, 100, 2, ep)
	var done *Command
	cmd := &Command{Op: OpRead, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{{}},
		Done: doneFunc(func(c *Command) { done = c })}
	ingress.Send(&pcie.Packet{Kind: pcie.MemRead, Meta: cmd}, nil)
	eng.Run()
	if done == nil || done.Result.Err != nil {
		t.Fatalf("packet-borne read: %+v", done)
	}
	// Credit must have been returned: both credits free again.
	if ingress.CreditsAvailable() != 2 {
		t.Errorf("credits = %d, want 2", ingress.CreditsAvailable())
	}
}

func TestBusUtilizationSampling(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	ep := New(eng, id0(), p)
	populate(t, ep, 0, 0, nand.Addr{})
	var s BusSampler // its first window starts at time zero
	ep.Submit(&Command{Op: OpRead, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{{}}})
	eng.Run()
	if eng.Now() >= BusSampleWindow {
		t.Fatalf("the read ran until %v, past the first window", eng.Now())
	}
	// Before the window elapses the zero share is cached.
	if got := s.Sample(ep); got != 0 {
		t.Errorf("Sample inside the first window = %v, want 0", got)
	}
	eng.RunUntil(BusSampleWindow)
	peek := s.Peek(ep)
	u := s.Sample(ep)
	if u <= 0 || u >= 1 {
		t.Errorf("bus utilization = %v, want in (0,1)", u)
	}
	if peek != u {
		t.Errorf("Peek = %v, but the Sample after it = %v", peek, u)
	}
	// Inside the next window the share of the last roll is returned.
	if got := s.Sample(ep); got != u {
		t.Errorf("Sample inside the window = %v, want the cached %v", got, u)
	}
}

func TestHostPriorityScheduling(t *testing.T) {
	run := func(hostPriority bool) []string {
		eng := simx.NewEngine()
		p := testParams()
		p.FIMMQueueDepth = 1
		p.FIMM.Nand.CacheOK = false
		p.HostPriority = hostPriority
		ep := New(eng, id0(), p)
		for i := 0; i < 4; i++ {
			populate(t, ep, 0, 0, nand.Addr{Page: i})
		}
		var order []string
		submit := func(label string, page int, bg bool) {
			ep.Submit(&Command{
				Op: OpRead, FIMM: 0, Pkg: 0, Background: bg,
				Addrs: []nand.Addr{{Page: page}},
				Done:  doneFunc(func(*Command) { order = append(order, label) }),
			})
		}
		// First read occupies the FIMM; then two background reads queue,
		// then a host read arrives.
		submit("first", 0, true)
		submit("bg1", 1, true)
		submit("bg2", 2, true)
		submit("host", 3, false)
		eng.Run()
		return order
	}

	fifo := run(false)
	if fifo[3] != "host" {
		t.Errorf("FIFO order = %v, want host last", fifo)
	}
	prio := run(true)
	if prio[1] != "host" {
		t.Errorf("host-priority order = %v, want host second", prio)
	}
	// Background order is preserved in both cases.
	for _, order := range [][]string{fifo, prio} {
		bgSeen := []string{}
		for _, l := range order {
			if l == "bg1" || l == "bg2" {
				bgSeen = append(bgSeen, l)
			}
		}
		if bgSeen[0] != "bg1" || bgSeen[1] != "bg2" {
			t.Errorf("background order not preserved: %v", order)
		}
	}
}

func TestSlotLatencyScale(t *testing.T) {
	p := testParams()
	p.SlotLatencyScale = []float64{4} // slot 0 degraded; slot 1 unlisted
	ep := New(simx.NewEngine(), id0(), p)
	n := p.FIMM.Nand
	if got := ep.FIMM(0).Params().Nand.TRead; got != 4*n.TRead {
		t.Errorf("degraded slot TRead = %v, want %v", got, 4*n.TRead)
	}
	if got := ep.FIMM(1).Params().Nand.TRead; got != n.TRead {
		t.Errorf("healthy slot TRead = %v, want %v", got, n.TRead)
	}
	// Factors <= 1 are no-ops.
	if got := scaleFIMMLatency(p.FIMM, 0.5).Nand.TProg; got != n.TProg {
		t.Errorf("sub-unity scale changed TProg: %v", got)
	}
}

func TestAccessors(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	ep := New(eng, id0(), p)
	if ep.ID() != id0() {
		t.Errorf("ID = %v", ep.ID())
	}
	if ep.Params().NumFIMMs != p.NumFIMMs {
		t.Errorf("Params = %+v", ep.Params())
	}
	b1, b2, s1, s2, w1, w2, hq := ep.DebugOccupancy()
	if b1+b2+s1+s2+w1+w2+hq != 0 {
		t.Error("fresh endpoint has occupancy")
	}
}

func TestForwardRequiresUpstream(t *testing.T) {
	eng := simx.NewEngine()
	ep := New(eng, id0(), testParams())
	defer func() {
		if recover() == nil {
			t.Error("Forward without upstream did not panic")
		}
	}()
	ep.Forward(&pcie.Packet{})
}

func TestServeBufferHit(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	ep := New(eng, id0(), p)
	var done *Command
	// A buffer-hit read completes without any device page existing.
	ep.Submit(&Command{Op: OpRead, FIMM: 0, Pkg: 0, Addrs: []nand.Addr{{}},
		BufferHit: true, Background: true,
		Done: doneFunc(func(c *Command) { done = c })})
	eng.Run()
	if done == nil || done.Result.Err != nil {
		t.Fatalf("buffer hit: %+v", done)
	}
	if done.Result.Texe != 0 {
		t.Errorf("buffer hit touched the flash: %+v", done.Result)
	}
	if ep.Stats().BufferHits != 1 {
		t.Errorf("BufferHits = %d", ep.Stats().BufferHits)
	}
	// Completion was fast: HAL latency only.
	if eng.Now() != p.HALLatency {
		t.Errorf("buffer hit took %v, want %v", eng.Now(), p.HALLatency)
	}
}
