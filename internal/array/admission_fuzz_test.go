package array

import (
	"testing"

	"triplea/internal/simx"
	"triplea/internal/trace"
	"triplea/internal/units"
)

// fuzzMaxPages is the largest request FuzzAdmission builds; request i's
// writes use LPNs fuzzMaxPages*i onwards, so a written LPN names its
// request and page.
const fuzzMaxPages = 4

// FuzzAdmission drives RC admission on a 1x1 array with 1 to 8 RC queue
// entries and the host DRAM cache on or off. Each two bytes of script
// are one request: the first picks its op, its size (one to
// fuzzMaxPages pages) and, for a read, which earlier request's LPNs it
// reads again (so the cache can hit); the second scales gap into its
// arrival after the previous one. The checks: every request completes
// or fails exactly once, admitted writes follow (request ID, page)
// order, and no request's RC stall is negative.
func FuzzAdmission(f *testing.F) {
	f.Add(uint8(0), false, uint16(500), []byte{1, 0, 7, 0, 2, 1, 5, 0, 3, 3})
	f.Add(uint8(7), true, uint16(0), []byte{7, 0, 6, 0, 0x1e, 0, 3, 0, 0x26, 0, 5, 0})
	f.Add(uint8(2), true, uint16(20_000), []byte{0, 1, 1, 2, 0x0a, 3, 7, 0, 0x12, 1, 1, 0})
	f.Fuzz(func(t *testing.T, entries uint8, cache bool, gap uint16, script []byte) {
		cfg := testConfig()
		cfg.Geometry.Switches = 1
		cfg.Geometry.ClustersPerSwitch = 1
		cfg.Geometry.Nand.BlocksPerPlane = 64
		cfg.RCQueueEntries = 1 + int(entries%8)
		if cache {
			cfg.HostDRAMBytes = 1 << 20
		}
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		probe := &admissionProbe{a: a}
		a.SetHooks(probe)

		var reqs []trace.Request
		var at simx.Time
		for i := 0; i+1 < len(script) && i/2 < 48; i += 2 {
			b, n := script[i], len(reqs)
			at += simx.Time(gap) * simx.Time(script[i+1]%4)
			r := trace.Request{
				Arrival: at, Op: trace.Read,
				LPN:   int64(fuzzMaxPages * (int(b>>3) % (n + 1))),
				Pages: units.Pages(1 + int(b>>1)%fuzzMaxPages),
			}
			if b&1 == 1 {
				r.Op, r.LPN = trace.Write, int64(fuzzMaxPages*n)
			}
			reqs = append(reqs, r)
		}
		rec, err := a.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}

		seen := make([]int, len(reqs)+1)
		for _, r := range rec.Records() {
			seen[r.ID]++
			if r.Breakdown.RCStall < 0 {
				t.Errorf("request %d: negative RC stall %v", r.ID, r.Breakdown.RCStall)
			}
		}
		for _, fl := range rec.Failures() {
			seen[fl.ID]++
		}
		for id := 1; id <= len(reqs); id++ {
			if seen[id] != 1 {
				t.Errorf("request %d finished %d times, want once", id, seen[id])
			}
		}
		for k := 1; k < len(probe.lpns); k++ {
			if probe.lpns[k] <= probe.lpns[k-1] {
				t.Fatalf("write LPN %d admitted after LPN %d: out of (request, page) order",
					probe.lpns[k], probe.lpns[k-1])
			}
		}
		for k, lpn := range probe.lpns {
			if stall := probe.at[k] - reqs[lpn/fuzzMaxPages].Arrival; stall < 0 {
				t.Errorf("write LPN %d admitted %v before its request arrived", lpn, -stall)
			}
		}
		checkRCDrained(t, a)
	})
}
