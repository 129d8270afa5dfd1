package array

import (
	"slices"
	"testing"

	"triplea/internal/cluster"
	"triplea/internal/nand"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
)

// overwriteTrace hammers a few LPNs so blocks recycle.
func overwriteTrace(rounds int, lpns int64, gap simx.Time) []trace.Request {
	var reqs []trace.Request
	var now simx.Time
	for r := 0; r < rounds; r++ {
		for lpn := int64(0); lpn < lpns; lpn++ {
			reqs = append(reqs, trace.Request{Arrival: now, Op: trace.Write, LPN: lpn, Pages: 1})
			now += gap
		}
	}
	return reqs
}

func gcConfig() Config {
	cfg := testConfig()
	cfg.Geometry.Nand.BlocksPerPlane = 8
	cfg.GCThreshold = 6
	return cfg
}

func TestOpportunisticGCDefersUnderLoad(t *testing.T) {
	// Interleave overwrites with a heavy read stream on the same
	// cluster so its bus stays busy; the opportunistic scheduler must
	// defer at least some rounds, and still reclaim eventually.
	build := func(opportunistic bool) *Array {
		cfg := gcConfig()
		// Pressure must first appear mid-run (while the bus is busy),
		// not at prepare time when the array is still idle.
		cfg.GCThreshold = 4
		cfg.OpportunisticGC = opportunistic
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	reqs := overwriteTrace(20, 4, simx.Millisecond/2)
	// Dense read traffic across two FIMMs of the same cluster keeps the
	// shared bus saturated (die time overlaps, transfers serialise).
	perFIMM := gcConfig().Geometry.PagesPerFIMM().Int64()
	var mixed []trace.Request
	for i, w := range reqs {
		mixed = append(mixed, w)
		for j := 0; j < 48; j++ {
			base := int64(10)
			if j%2 == 1 {
				base = perFIMM + 10
			}
			mixed = append(mixed, trace.Request{
				Arrival: w.Arrival + simx.Time(j+1)*10*simx.Microsecond,
				Op:      trace.Read,
				LPN:     base + int64((i+j)%20),
				Pages:   1,
			})
		}
	}

	eager := build(false)
	if _, err := eager.Run(mixed); err != nil {
		t.Fatal(err)
	}
	oppo := build(true)
	if _, err := oppo.Run(mixed); err != nil {
		t.Fatal(err)
	}

	if eager.GCDeferrals() != 0 {
		t.Errorf("eager GC deferred %d times", eager.GCDeferrals())
	}
	if oppo.GCDeferrals() == 0 {
		t.Error("opportunistic GC never deferred under load")
	}
	if oppo.FTL().Stats().GCErases == 0 {
		t.Error("opportunistic GC never reclaimed")
	}
}

func TestOpportunisticGCUrgencyOverride(t *testing.T) {
	// With almost no free blocks left, collection must run even while
	// the cluster is busy: fill a FIMM nearly to capacity.
	cfg := gcConfig()
	cfg.OpportunisticGC = true
	cfg.Geometry.Nand.BlocksPerPlane = 4
	cfg.GCThreshold = 3
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Slow, sustained overwrites: pressure becomes urgent eventually.
	reqs := overwriteTrace(30, 4, 2*simx.Millisecond)
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if a.FTL().Stats().GCErases == 0 {
		t.Error("urgent pressure did not force collection")
	}
}

// TestEmergencyGCSparesInFlightVictim runs the emergency path on a FIMM
// while a background round is collecting there. runGCNow must pick a
// victim other than the round's: erasing that one under the round lets
// the FTL refill it, and the round's own erase then wipes live pages
// (caught here only by the GC bookkeeping check's panic).
func TestEmergencyGCSparesInFlightVictim(t *testing.T) {
	cfg := gcConfig()
	cfg.OpportunisticGC = true
	cfg.Geometry.Nand.BlocksPerPlane = 4
	cfg.GCThreshold = 3
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := overwriteTrace(30, 4, 2*simx.Millisecond)
	if err := a.Prepare(reqs); err != nil {
		t.Fatal(err)
	}
	(&arrivalFeeder{arr: a, reqs: reqs}).scheduleNext(0)
	flat := -1
	for flat < 0 {
		if !a.eng.Step() {
			t.Fatal("the run ended before a background GC round began")
		}
		flat = slices.IndexFunc(a.gc, func(w gcWorker) bool { return w.inRound })
	}
	victim := a.gc[flat].plan.Victim
	if !a.gcVeto(victim) {
		t.Fatalf("in-flight victim %v not vetoed", victim)
	}
	a.runGCNow(topo.FIMMFromFlat(cfg.Geometry, flat))
	a.eng.Run()
	if a.inFlight != 0 || a.recorder.Count() != len(reqs) {
		t.Fatalf("%d requests in flight, %d of %d completed", a.inFlight, a.recorder.Count(), len(reqs))
	}
	if a.gcVeto(victim) {
		t.Errorf("victim %v still vetoed after its round ended", victim)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestGCVetoProtectsPendingBlocks(t *testing.T) {
	// gcVeto must report blocks with pending flushes.
	a, _ := New(testConfig())
	wa, err := a.FTL().AllocateWrite(0)
	if err != nil {
		t.Fatal(err)
	}
	b := a.buffer(wa.New)
	if !a.gcVeto(wa.New) {
		t.Error("pending block not vetoed")
	}
	b.flushed(wa.New.Page())
	a.releaseGate(wa.New.BlockKey(), b)
	if a.gcVeto(wa.New) {
		t.Error("clean block vetoed")
	}
}

// launchFunc adapts a function to launcher.
type launchFunc func()

func (f launchFunc) launch() { f() }

// TestWriteBufferRecord follows one block's write-buffer record through
// two programs, with a stale-mark deferred on the first: reads see the
// buffer until each page flushes, the deferred mark reaches the device
// at that page's flush, the second program launches only after the
// first flushed, the GC veto holds until the last flush, and the record
// is retired once the gate is idle.
func TestWriteBufferRecord(t *testing.T) {
	cfg := testConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Write one FIMM until two pages land in the same erase block.
	id := a.FTL().HomeFIMM(0)
	var first, second topo.PPN
	byBlock := map[topo.PPN]topo.PPN{}
	for lpn := int64(0); second == 0; lpn++ {
		wa, err := a.FTL().AllocateWriteAt(lpn, id)
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := byBlock[wa.New.BlockKey()]; ok {
			first, second = p, wa.New
		}
		byBlock[wa.New.BlockKey()] = wa.New
	}

	var launched []topo.PPN
	var cmds []*cluster.Command
	for _, ppn := range []topo.PPN{first, second} {
		cmd := a.cmdPool.Get()
		cmd.Background = true
		cmds = append(cmds, cmd)
		a.launchProgram(a.trackFlush(ppn, cmd), launchFunc(func() { launched = append(launched, ppn) }))
	}
	if len(launched) != 1 || launched[0] != first {
		t.Fatalf("launched %v before any flush, want only %v", launched, first)
	}
	if !a.buffered(first) || !a.buffered(second) {
		t.Fatal("buffered programs not reported as buffer hits")
	}
	// The device page is still erased, so an undeferred mark would panic.
	a.markStaleDevice(first)

	g := &cfg.Geometry
	for _, ppn := range []topo.PPN{first, second} {
		if err := a.pkgAt(ppn).ForcePopulate(ppn.NandAddr(g)); err != nil {
			t.Fatal(err)
		}
	}
	a.OnCommandFlushed(cmds[0])
	if a.buffered(first) || !a.buffered(second) {
		t.Errorf("after the first flush: buffered %v, %v; want false, true", a.buffered(first), a.buffered(second))
	}
	if st := a.pkgAt(first).PageStateAt(first.NandAddr(g)); st != nand.PageStale {
		t.Errorf("deferred stale-mark: first page is %v at its flush, want stale", st)
	}
	if st := a.pkgAt(second).PageStateAt(second.NandAddr(g)); st != nand.PageValid {
		t.Errorf("second page is %v, want valid", st)
	}
	if len(launched) != 2 {
		t.Errorf("second program launched %d times after the first flush, want once", len(launched)-1)
	}
	if !a.gcVeto(first) {
		t.Error("block not vetoed while its second program is buffered")
	}

	a.OnCommandFlushed(cmds[1])
	if a.buffered(second) || a.gcVeto(first) {
		t.Error("block still buffered or vetoed after its last flush")
	}
	if len(a.bufs) != 0 || a.freeBuf == nil {
		t.Errorf("%d records live, free-list empty %v: the idle record was not retired", len(a.bufs), a.freeBuf == nil)
	}
}
