package metrics

import (
	"testing"
	"testing/quick"
	"unsafe"

	"triplea/internal/simx"
)

func rec(id uint64, submit, complete simx.Time) Record {
	return Record{ID: id, Kind: Read, Pages: 1, Submit: submit, Complete: complete}
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("RequestKind.String mismatch")
	}
}

func TestBreakdownAddTotal(t *testing.T) {
	var b Breakdown
	b.Add(Breakdown{RCStall: 1, SwitchStall: 2, EPWait: 3, StorageWait: 4,
		LinkWait: 5, Texe: 6, LinkXfer: 7, FabricXfer: 8})
	b.Add(Breakdown{RCStall: 1})
	if b.RCStall != 2 || b.Total() != 37 {
		t.Errorf("b = %+v, Total = %v", b, b.Total())
	}
	if b.QueueStall() != 2+2+3+4+5 {
		t.Errorf("QueueStall = %v", b.QueueStall())
	}
	if b.LinkContention() != 5 || b.StorageContention() != 7 {
		t.Errorf("contentions = %v, %v", b.LinkContention(), b.StorageContention())
	}
}

func TestBreakdownScale(t *testing.T) {
	b := Breakdown{RCStall: 10, Texe: 20}
	m := b.Scale(2)
	if m.RCStall != 5 || m.Texe != 10 {
		t.Errorf("Scale = %+v", m)
	}
	if z := b.Scale(0); z.Total() != 0 {
		t.Errorf("Scale(0) = %+v", z)
	}
}

func TestRecorderBasics(t *testing.T) {
	rc := NewRecorder()
	if rc.Count() != 0 || rc.IOPS() != 0 || rc.AvgLatency() != 0 {
		t.Error("empty recorder not zero")
	}
	rc.Record(rec(1, 0, 100))
	rc.Record(rec(2, 50, 250))
	w := rec(3, 100, 200)
	w.Kind = Write
	rc.Record(w)

	if rc.Count() != 3 || rc.Reads() != 2 || rc.Writes() != 1 {
		t.Errorf("counts: %d/%d/%d", rc.Count(), rc.Reads(), rc.Writes())
	}
	if got := rc.AvgLatency(); got != (100+200+100)/3 {
		t.Errorf("AvgLatency = %v", got)
	}
	// 3 requests over [0, 250] ns => 3 / 250e-9 s = 12e6 IOPS.
	if got := rc.IOPS(); got != 12_000_000 {
		t.Errorf("IOPS = %v, want 12e6", got)
	}
}

func TestRecorderRejectsTimeTravel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("complete<submit not rejected")
		}
	}()
	NewRecorder().Record(rec(1, 100, 50))
}

func TestPercentiles(t *testing.T) {
	rc := NewRecorder()
	for i := 1; i <= 100; i++ {
		rc.Record(rec(uint64(i), 0, simx.Time(i)))
	}
	if got := rc.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := rc.Percentile(100); got != 100 {
		t.Errorf("P100 = %v", got)
	}
	if got := rc.Percentile(50); got < 49 || got > 51 {
		t.Errorf("P50 = %v", got)
	}
	if rc.MaxLatency() != 100 {
		t.Errorf("MaxLatency = %v", rc.MaxLatency())
	}
	defer func() {
		if recover() == nil {
			t.Error("Percentile(101) did not panic")
		}
	}()
	rc.Percentile(101)
}

func TestCDF(t *testing.T) {
	rc := NewRecorder()
	for i := 1; i <= 1000; i++ {
		rc.Record(rec(uint64(i), 0, simx.Time(i)*simx.Microsecond))
	}
	pts := rc.CDF(10)
	if len(pts) != 10 {
		t.Fatalf("CDF returned %d points", len(pts))
	}
	for i, p := range pts {
		wantFrac := float64(i+1) / 10
		if p.Fraction != wantFrac {
			t.Errorf("point %d fraction %v, want %v", i, p.Fraction, wantFrac)
		}
		if i > 0 && p.LatencyUS < pts[i-1].LatencyUS {
			t.Error("CDF latencies not monotonic")
		}
	}
	if pts[9].LatencyUS != 1000 {
		t.Errorf("last point %v us, want 1000", pts[9].LatencyUS)
	}
	if NewRecorder().CDF(5) != nil {
		t.Error("CDF of empty recorder not nil")
	}
}

func TestBreakdownAggregation(t *testing.T) {
	rc := NewRecorder()
	r1 := rec(1, 0, 10)
	r1.Breakdown = Breakdown{LinkWait: 4, Texe: 6}
	r2 := rec(2, 0, 20)
	r2.Breakdown = Breakdown{LinkWait: 10, StorageWait: 10}
	rc.Record(r1)
	rc.Record(r2)
	if got := rc.SumBreakdown().LinkWait; got != 14 {
		t.Errorf("sum LinkWait = %v", got)
	}
	if got := rc.MeanBreakdown().LinkWait; got != 7 {
		t.Errorf("mean LinkWait = %v", got)
	}
}

func TestSeries(t *testing.T) {
	rc := NewRecorder()
	// Insert out of submission order; Series must sort by submit.
	rc.Record(rec(2, 200, 300))
	rc.Record(rec(1, 100, 150))
	rc.Record(rec(3, 300, 500))
	s := rc.Series(10)
	if len(s) != 3 {
		t.Fatalf("Series len = %d", len(s))
	}
	if s[0].ID != 1 || s[2].ID != 3 {
		t.Errorf("series order: %v %v %v", s[0].ID, s[1].ID, s[2].ID)
	}
	// Downsampling caps the length.
	for i := 0; i < 100; i++ {
		rc.Record(rec(uint64(10+i), simx.Time(1000+i), simx.Time(2000+i)))
	}
	if got := len(rc.Series(10)); got != 10 {
		t.Errorf("downsampled series len = %d", got)
	}
	if rc.Series(0) != nil {
		t.Error("Series(0) not nil")
	}
}

// Property: for any set of latencies, percentiles are monotone and the
// average lies between P0 and P100.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(lats []uint32) bool {
		if len(lats) == 0 {
			return true
		}
		rc := NewRecorder()
		for i, l := range lats {
			rc.Record(rec(uint64(i), 0, simx.Time(l)))
		}
		prev := simx.Time(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := rc.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		avg := rc.AvgLatency()
		return avg >= rc.Percentile(0) && avg <= rc.Percentile(100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAttributeShare(t *testing.T) {
	b := Breakdown{RCStall: 60, SwitchStall: 40, LinkWait: 10, EPWait: 5, StorageWait: 5}
	b.AttributeShare(0.7)
	if b.LinkCause != 70 || b.StorageCause != 30 {
		t.Errorf("70/30 split: link=%v storage=%v", b.LinkCause, b.StorageCause)
	}
	// LinkContention/StorageContention include the causes.
	if b.LinkContention() != 80 || b.StorageContention() != 40 {
		t.Errorf("contentions: %v/%v", b.LinkContention(), b.StorageContention())
	}
	// Clamping.
	b.AttributeShare(1.5)
	if b.LinkCause != 100 || b.StorageCause != 0 {
		t.Errorf("clamped high: %v/%v", b.LinkCause, b.StorageCause)
	}
	b.AttributeShare(-1)
	if b.LinkCause != 0 || b.StorageCause != 100 {
		t.Errorf("clamped low: %v/%v", b.LinkCause, b.StorageCause)
	}
	// No upstream stall: nothing attributed.
	z := Breakdown{LinkWait: 5}
	z.AttributeShare(1)
	if z.LinkCause != 0 || z.StorageCause != 0 {
		t.Errorf("no-upstream attribution: %+v", z)
	}
	// No device-side waits: nothing attributed either.
	u := Breakdown{RCStall: 100}
	u.AttributeShare(1)
	if u.LinkCause != 0 {
		t.Errorf("device-free attribution: %+v", u)
	}
}

func TestRecordsExposed(t *testing.T) {
	rc := NewRecorder()
	rc.Record(rec(1, 0, 5))
	if got := rc.Records(); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("Records = %v", got)
	}
}

// TestReserve pins Recorder.Reserve. Under Exact, n records after
// Reserve(n) allocate nothing and come back in order after the records
// made before it, and the footprint counts the room reserved. Streaming
// keeps no samples, so Reserve leaves its footprint alone.
func TestReserve(t *testing.T) {
	const n = 1000
	rc := NewRecorder()
	rc.Record(rec(0, 0, 1))
	rc.Reserve(n)
	if got, want := rc.FootprintBytes(), (n+1)*int(unsafe.Sizeof(Record{})); got < want {
		t.Errorf("FootprintBytes after Reserve(%d) = %d, want at least %d", n, got, want)
	}
	warmedUp := false
	allocs := testing.AllocsPerRun(1, func() {
		if !warmedUp { // AllocsPerRun calls once unmeasured first
			warmedUp = true
			return
		}
		for id := uint64(1); id <= n; id++ {
			rc.Record(rec(id, 0, simx.Time(id)))
		}
	})
	if allocs != 0 {
		t.Errorf("%d records after Reserve(%d) allocate %v times, want 0", n, n, allocs)
	}
	got := rc.Records()
	if len(got) != n+1 {
		t.Fatalf("%d records kept, want %d", len(got), n+1)
	}
	for i, r := range got {
		if r.ID != uint64(i) {
			t.Fatalf("record %d has ID %d, want %d", i, r.ID, i)
		}
	}

	st := NewRecorderWith(Streaming, DefaultSustainedWindow)
	st.Record(rec(0, 0, 1))
	before := st.FootprintBytes()
	st.Reserve(n)
	if after := st.FootprintBytes(); after != before || st.Records() != nil {
		t.Errorf("streaming Reserve(%d): footprint %d B -> %d B, %d records kept; want unchanged, none",
			n, before, after, len(st.Records()))
	}
}

func TestSustainedIOPS(t *testing.T) {
	rc := NewRecorderWith(Exact, simx.Millisecond)
	if rc.SustainedIOPS(simx.Millisecond) != 0 {
		t.Error("empty sustained not 0")
	}
	// 10 completions in window [0,1ms), 2 in [1ms,2ms).
	for i := 0; i < 10; i++ {
		rc.Record(rec(uint64(i), 0, simx.Time(i)*50*simx.Microsecond))
	}
	rc.Record(rec(100, 0, 1500*simx.Microsecond))
	rc.Record(rec(101, 0, 1600*simx.Microsecond))
	// Peak window holds 10 completions over 1ms: 10K IOPS.
	if got := rc.SustainedIOPS(simx.Millisecond); got != 10_000 {
		t.Errorf("SustainedIOPS = %v, want 10000", got)
	}
	if rc.SustainedIOPS(0) != 0 {
		t.Error("zero window not 0")
	}
	// The tracker answers only for the width it was built with.
	defer func() {
		if recover() == nil {
			t.Error("SustainedIOPS over another window did not panic")
		}
	}()
	rc.SustainedIOPS(2 * simx.Millisecond)
}
