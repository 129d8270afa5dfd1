package array

import (
	"slices"
	"testing"

	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/units"
)

// admissionProbe is a Hooks that records each host write's admission:
// WriteTarget runs while admitPage resolves a write, at the instant
// the page takes its RC queue entry.
type admissionProbe struct {
	a    *Array
	lpns []int64
	at   []simx.Time
}

func (p *admissionProbe) OnPageComplete(PageComplete) {}

func (p *admissionProbe) WriteTarget(lpn int64, resident topo.FIMMID) topo.FIMMID {
	p.lpns = append(p.lpns, lpn)
	p.at = append(p.at, p.a.eng.Now())
	return resident
}

// queuedPages reports the runs on the RC wait queue and the pages they
// hold.
func (a *Array) queuedPages() (runs int, pages int64) {
	for w := a.waitHead; w != nil; w = w.next {
		runs++
		pages += w.left
	}
	return runs, pages
}

// checkRCDrained fails unless every RC queue entry is free again and
// no page waits for one.
func checkRCDrained(t *testing.T, a *Array) {
	t.Helper()
	if runs, pages := a.queuedPages(); a.rcFree != a.cfg.RCQueueEntries || runs != 0 {
		t.Errorf("after the run: %d of %d RC entries free, %d runs (%d pages) still queued",
			a.rcFree, a.cfg.RCQueueEntries, runs, pages)
	}
}

// admissionTrace is six write requests of one to three pages on a
// 1-entry RC queue, arriving faster than the array serves them, two of
// them at the same instant. Request i writes LPNs 8i onwards.
func admissionTrace() []trace.Request {
	var reqs []trace.Request
	for i, at := range []simx.Time{0, 0, 1, 2, 3, 40} {
		reqs = append(reqs, trace.Request{
			Arrival: at * simx.Microsecond, Op: trace.Write,
			LPN: int64(8 * i), Pages: units.Pages(1 + i%3),
		})
	}
	return reqs
}

// TestRCAdmission pins the host-side RC admission rules: a page command
// takes one RC queue entry, pages that find none wait first in first
// out across requests and in page order within one, a waiting page's
// RC stall is its admission time minus its request's submit time,
// host DRAM hits never take an entry, and a page that a fault
// terminates hands its entry on.
func TestRCAdmission(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"pages admitted in arrival then page order", func(t *testing.T) {
			cfg := testConfig()
			cfg.RCQueueEntries = 1
			a, _ := New(cfg)
			probe := &admissionProbe{a: a}
			a.SetHooks(probe)
			reqs := admissionTrace()
			if _, err := a.Run(reqs); err != nil {
				t.Fatal(err)
			}
			var want []int64
			for _, r := range reqs {
				for p := int64(0); p < r.Pages.Int64(); p++ {
					want = append(want, r.LPN+p)
				}
			}
			if !slices.Equal(probe.lpns, want) {
				t.Errorf("admission order %v, want %v", probe.lpns, want)
			}
			checkRCDrained(t, a)
		}},
		{"stall is admission minus submit", func(t *testing.T) {
			cfg := testConfig()
			cfg.RCQueueEntries = 1
			a, _ := New(cfg)
			probe := &admissionProbe{a: a}
			a.SetHooks(probe)
			reqs := admissionTrace()
			rec, err := a.Run(reqs)
			if err != nil {
				t.Fatal(err)
			}
			// Request i's stall is the sum over its pages of admission
			// time minus its arrival; nothing else queues at the RC, so
			// the packets add no RC-side wait of their own.
			want := map[uint64]simx.Time{}
			waited := 0
			for k, lpn := range probe.lpns {
				i := lpn / 8
				stall := probe.at[k] - reqs[i].Arrival
				if stall > 0 {
					waited++
				}
				want[uint64(i)+1] += stall
			}
			if waited == 0 {
				t.Fatal("no page waited for an RC entry; the row tests nothing")
			}
			for _, r := range rec.Records() {
				if r.Breakdown.RCStall != want[r.ID] {
					t.Errorf("request %d: RC stall %v, want %v", r.ID, r.Breakdown.RCStall, want[r.ID])
				}
			}
			checkRCDrained(t, a)
		}},
		{"cache hits take no entry", func(t *testing.T) {
			cfg := testConfig()
			cfg.RCQueueEntries = 1
			cfg.HostDRAMBytes = 64 << 20
			a, _ := New(cfg)
			reqs := []trace.Request{
				{Op: trace.Read, LPN: 0, Pages: 1},
				{Op: trace.Read, LPN: 10, Pages: 4}, // hit, miss, hit, miss
			}
			if err := a.Prepare(reqs); err != nil {
				t.Fatal(err)
			}
			a.cache.install(10)
			a.cache.install(12)
			a.Submit(reqs[0]) // takes the only entry
			a.Submit(reqs[1])
			if runs, pages := a.queuedPages(); a.rcFree != 0 || runs != 2 || pages != 2 {
				t.Fatalf("after submit: %d entries free, %d runs of %d pages queued; "+
					"want 0 free and the two misses queued as two runs", a.rcFree, runs, pages)
			}
			for w := a.waitHead; w != nil; w = w.next {
				if w.req == nil {
					t.Error("a run of a request with a cache hit has no request")
				}
			}
			a.Engine().Run()
			rec := a.Recorder()
			if cs := a.CacheStats(); cs.Hits != 2 || rec.Count() != 2 {
				t.Fatalf("%d cache hits, %d requests recorded; want 2 and 2", cs.Hits, rec.Count())
			}
			if r := rec.Records()[1]; r.ID != 2 || r.Breakdown.RCStall == 0 {
				t.Errorf("request %d finished last with RC stall %v; want request 2, whose misses waited",
					r.ID, r.Breakdown.RCStall)
			}
			checkRCDrained(t, a)
		}},
		{"failed page hands its entry on", func(t *testing.T) {
			cfg := testConfig()
			cfg.RCQueueEntries = 1
			a, _ := New(cfg)
			dead, err := a.ensureMapped(0)
			if err != nil {
				t.Fatal(err)
			}
			live := int64(1)
			for ; ; live++ {
				ppn, err := a.ensureMapped(live)
				if err != nil {
					t.Fatal(err)
				}
				if ppn.FIMMID() != dead.FIMMID() {
					break
				}
			}
			a.ArmFaults()
			a.Endpoint(dead.ClusterID()).FIMM(dead.FIMMSlot()).Kill()
			rec, err := a.Run([]trace.Request{
				{Op: trace.Read, LPN: 0, Pages: 1},
				{Op: trace.Read, LPN: live, Pages: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rec.FailedCount() != 1 || rec.Count() != 1 {
				t.Fatalf("%d failed, %d completed; want the dead FIMM's read failed and the other completed",
					rec.FailedCount(), rec.Count())
			}
			if r := rec.Records()[0]; r.ID != 2 || r.Breakdown.RCStall == 0 {
				t.Errorf("request %d completed with RC stall %v; want request 2 after waiting", r.ID, r.Breakdown.RCStall)
			}
			checkRCDrained(t, a)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, row.run)
	}
}

// TestRCAdmissionPools pins what a backed-up RC queue holds: a waiting
// page is a count in its request's run record, not a pageRef, and a
// waiting request has no request node until its first page is
// admitted. So with the DRAM cache off the pageRef pool never grows
// past the RC's entries, and the request pool past one more: the
// request whose last page is retiring while its entry admits the next
// page. Every object is back on its free-list after the run, so each
// list's length is the most its pool ever held at once.
func TestRCAdmissionPools(t *testing.T) {
	cfg := testConfig()
	cfg.RCQueueEntries = 8
	a, _ := New(cfg)
	var reqs []trace.Request
	for i := 0; i < 400; i++ {
		reqs = append(reqs, trace.Request{
			Arrival: simx.Time(i) * 100 * simx.Nanosecond, Op: trace.Read,
			LPN: int64(i*7) % 512, Pages: units.Pages(1 + i%4),
		})
	}
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	var refs, nodes, runs int
	for r := a.freeRef; r != nil; r = r.next {
		refs++
	}
	for r := a.freeReq; r != nil; r = r.next {
		nodes++
	}
	for w := a.freeRun; w != nil; w = w.next {
		runs++
	}
	t.Logf("pools after the run: %d pageRefs, %d requests, %d wait runs", refs, nodes, runs)
	if runs <= cfg.RCQueueEntries {
		t.Fatalf("at most %d requests waited at once; the RC queue of %d entries never backed up",
			runs, cfg.RCQueueEntries)
	}
	if refs > cfg.RCQueueEntries || nodes > cfg.RCQueueEntries+1 {
		t.Errorf("pools grew to %d pageRefs and %d requests with %d requests waiting at once; "+
			"want at most %d and %d", refs, nodes, runs, cfg.RCQueueEntries, cfg.RCQueueEntries+1)
	}
	checkRCDrained(t, a)
}
