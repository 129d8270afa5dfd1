package metrics

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"triplea/internal/simx"
)

// --- nearest-rank percentile semantics ---

// TestPercentileNearestRank pins the nearest-rank definition
// rank = ceil(p/100 * n), clamped to [1, n] — the fix for the old
// truncating int(p/100*(n-1)) indexing, which returned the wrong
// order statistic for most (p, n) pairs (e.g. P50 of [1..4] gave 2
// via index 1 instead of the rank-2 value by accident, but P75 gave
// 3 via index 2 where nearest-rank demands rank ceil(3)=3 too; the
// cases below include pairs where the two rules disagree).
func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		name string
		n    int       // latencies are 1..n (in simx.Time units)
		p    float64   // percentile
		want simx.Time // nearest-rank answer
	}{
		{"P0 clamps to min", 4, 0, 1},
		{"P100 is max", 4, 100, 4},
		{"P50 even n", 4, 50, 2},         // ceil(0.5*4)=2
		{"P75 even n", 4, 75, 3},         // ceil(3)=3; old floor rule gave index 2 -> 3 too, but
		{"P25 even n", 4, 25, 1},         // ceil(1)=1; old rule: int(0.25*3)=0 -> 1
		{"P51 just past half", 4, 51, 3}, /* ceil(2.04)=3; old rule: int(0.51*3)=1 -> 2 */
		{"P50 odd n", 5, 50, 3},          // ceil(2.5)=3 (the median)
		{"P90 ten", 10, 90, 9},           // ceil(9)=9; old rule: int(0.9*9)=8 -> 9
		{"P95 ten", 10, 95, 10},          // ceil(9.5)=10; old rule: int(.95*9)=8 -> 9 (wrong)
		{"P99 hundred", 100, 99, 99},
		{"P99 101 samples", 101, 99, 100}, // ceil(99.99)=100
		{"P1 hundred", 100, 1, 1},
		{"single sample", 1, 50, 1},
	}
	for _, tc := range cases {
		rc := NewRecorder()
		for i := 1; i <= tc.n; i++ {
			rc.Record(rec(uint64(i), 0, simx.Time(i)))
		}
		// Latencies 1..n are all below histSubCount, so the histogram
		// resolves them exactly and must agree to the nanosecond.
		if got := rc.Percentile(tc.p); got != tc.want {
			t.Errorf("%s: Percentile(%v) with n=%d = %v, want %v",
				tc.name, tc.p, tc.n, got, tc.want)
		}
	}
}

// --- accuracy against a sorted reference ---

// sortedLatencies is the test-side reference the recorder's statistics
// are checked against: every logged latency, sorted.
func sortedLatencies(rc *Recorder) []simx.Time {
	out := make([]simx.Time, len(rc.Records()))
	for i, r := range rc.Records() {
		out[i] = r.Latency()
	}
	slices.Sort(out)
	return out
}

// nearestRankOf reports the p-th percentile of sorted by the
// nearest-rank rule, rank = ceil(p/100 * n) clamped to [1, n].
func nearestRankOf(sorted []simx.Time, p float64) simx.Time {
	r := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(r, 1), len(sorted))-1]
}

// synthStream drives identical seeded workloads into the recorders:
// bursty mixed read/write traffic whose latencies span ~1us..16ms
// (four orders of magnitude, exercising many histogram octaves).
func synthStream(seed uint64, n int, rcs ...*Recorder) {
	rng := simx.NewRNG(seed)
	clock := simx.Time(0)
	for i := 0; i < n; i++ {
		clock += simx.Time(rng.Intn(3000)) * simx.Nanosecond
		lat := simx.Time(1000+rng.Intn(1<<uint(10+rng.Intn(14)))) * simx.Nanosecond
		r := Record{ID: uint64(i), Kind: Read, Pages: 1, Submit: clock, Complete: clock + lat}
		if rng.Float64() < 0.3 {
			r.Kind = Write
		}
		r.Breakdown = Breakdown{Texe: lat / 2, LinkWait: lat / 4}
		for _, rc := range rcs {
			rc.Record(r)
		}
	}
}

// TestPropertyStreamingAccuracy pins the recorder's headline accuracy
// contract: P50/P95/P99 within 1% relative error of the nearest-rank
// value of the sorted logged latencies, across seeded workloads (the
// histogram's 128 sub-buckets per octave bound the bucket-midpoint
// error at ~0.39%, so 1% holds with margin). The mean is exact.
func TestPropertyStreamingAccuracy(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1000, 123456789} {
		rc := NewRecorder()
		synthStream(seed, 20000, rc)
		sorted := sortedLatencies(rc)
		for _, p := range []float64{50, 95, 99} {
			want := nearestRankOf(sorted, p)
			got := rc.Percentile(p)
			relErr := math.Abs(float64(got)-float64(want)) / float64(want)
			if relErr > 0.01 {
				t.Errorf("seed %d: P%v reference=%v recorder=%v relative error %.4f > 1%%",
					seed, p, want, got, relErr)
			}
		}
		var sum simx.Time
		for _, l := range sorted {
			sum += l
		}
		if want := sum / simx.Time(len(sorted)); rc.AvgLatency() != want {
			t.Errorf("seed %d: AvgLatency = %v, reference %v", seed, rc.AvgLatency(), want)
		}
	}
}

// TestSustainedIOPSMatchesMapScan pins the windowed tracker against a
// map scan of the logged completions at the recorder level. The
// simulator records requests at completion time, so completions are fed
// in nondecreasing order — the regime where the incremental tracker is
// exact, not approximate.
func TestSustainedIOPSMatchesMapScan(t *testing.T) {
	rc := NewRecorder()
	rng := simx.NewRNG(11)
	clock := simx.Time(0)
	for i := 0; i < 10000; i++ {
		// Bursty completion stream: quiet gaps then dense windows.
		if rng.Intn(50) == 0 {
			clock += simx.Time(rng.Intn(int(DefaultSustainedWindow)))
		}
		clock += simx.Time(rng.Intn(2000)) * simx.Nanosecond
		rc.Record(rec(uint64(i), clock-simx.Microsecond, clock))
	}
	got, want := rc.SustainedIOPS(DefaultSustainedWindow), mapScanIOPS(rc.Records(), DefaultSustainedWindow)
	if got != want {
		t.Errorf("SustainedIOPS = %v, map scan = %v", got, want)
	}
	if got <= 0 {
		t.Errorf("degenerate sustained rate %v", got)
	}
}

// mapScanIOPS is the reference sustained rate: the most completions in
// any aligned window, as a per-second rate.
func mapScanIOPS(records []Record, window simx.Time) float64 {
	buckets := make(map[int64]int)
	best := 0
	for _, r := range records {
		b := int64(r.Complete / window)
		buckets[b]++
		best = max(best, buckets[b])
	}
	return float64(best) / (float64(window) / float64(simx.Second))
}

// TestStreamingMinMaxExact pins that min and max latency are tracked
// exactly (not bucket-approximated): P0 and P100 must equal the
// extremes of the sorted reference.
func TestStreamingMinMaxExact(t *testing.T) {
	rc := NewRecorder()
	synthStream(99, 5000, rc)
	sorted := sortedLatencies(rc)
	if got, want := rc.Percentile(0), sorted[0]; got != want {
		t.Errorf("P0 = %v, reference %v", got, want)
	}
	if got, want := rc.MaxLatency(), sorted[len(sorted)-1]; got != want {
		t.Errorf("P100 = %v, reference %v", got, want)
	}
}

// --- determinism: same seed, byte-identical registry export ---

func TestStreamingExportDeterminism(t *testing.T) {
	run := func() []byte {
		rc := NewRecorderWith(Streaming, DefaultSustainedWindow)
		synthStream(42, 10000, rc)
		rc.RecordFailure(Failure{ID: 3, Kind: Write, At: 5 * simx.Microsecond})
		return rc.ExportJSON()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed streaming exports differ:\n%s\n---\n%s", a, b)
	}
	if len(a) == 0 || a[0] != '{' {
		t.Fatalf("export is not a JSON object: %q", a)
	}
}

// --- zero-allocation record path under streaming ---

// TestStreamingRecordPathDoesNotAllocate pins the Streaming backend's
// per-request contract at exactly zero allocations: Recorder.Record,
// RecordFailure, and the Counter.Inc and Breakdown.Add updates beneath
// them run in place on state sized at construction. Each measured call
// is one batch long enough to cross timeline range-doublings and the
// series reservoir's stride changes, and AllocsPerRun measures a single
// batch, so even one allocation anywhere in it fails the pin.
func TestStreamingRecordPathDoesNotAllocate(t *testing.T) {
	rc := NewRecorderWith(Streaming, DefaultSustainedWindow)
	ctr := NewRegistry().NewCounter("test.ops")
	var sum Breakdown
	var now simx.Time
	batch := func() {
		for i := 0; i < 10_000; i++ {
			now += 3 * simx.Microsecond
			b := Breakdown{StorageWait: simx.Time(i%7) * simx.Microsecond, Texe: 50 * simx.Microsecond}
			rc.Record(Record{ID: uint64(now), Kind: RequestKind(i % 2), Pages: 1,
				Submit: now, Complete: now + b.Total(), Breakdown: b})
			rc.RecordFailure(Failure{ID: uint64(now), Kind: Write, Pages: 1, Submit: now, At: now + simx.Microsecond})
			ctr.Inc()
			sum.Add(b)
		}
	}
	if n := testing.AllocsPerRun(1, batch); n != 0 {
		t.Errorf("streaming record path allocates %v per 10k-request batch, want 0", n)
	}
}

// --- bounded failure log under streaming ---

func TestStreamingFailureLogBounded(t *testing.T) {
	rc := NewRecorderWith(Streaming, DefaultSustainedWindow)
	const total = 3 * failureExemplarCap
	for i := 0; i < total; i++ {
		rc.RecordFailure(Failure{ID: uint64(i), Kind: Read, At: simx.Time(i) * simx.Microsecond})
	}
	if got := rc.FailedCount(); got != total {
		t.Errorf("FailedCount = %d, want %d", got, total)
	}
	fs := rc.Failures()
	if len(fs) != failureExemplarCap {
		t.Fatalf("Failures len = %d, want cap %d", len(fs), failureExemplarCap)
	}
	// The ring keeps the most recent exemplars, oldest first.
	wantFirst := uint64(total - failureExemplarCap)
	if fs[0].ID != wantFirst || fs[len(fs)-1].ID != total-1 {
		t.Errorf("ring window [%d..%d], want [%d..%d]",
			fs[0].ID, fs[len(fs)-1].ID, wantFirst, total-1)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i].ID != fs[i-1].ID+1 {
			t.Fatalf("ring order broken at %d: %d after %d", i, fs[i].ID, fs[i-1].ID)
		}
	}
	// Under exact, the full log is retained.
	ex := NewRecorderWith(Exact, DefaultSustainedWindow)
	for i := 0; i < total; i++ {
		ex.RecordFailure(Failure{ID: uint64(i), Kind: Read, At: simx.Time(i) * simx.Microsecond})
	}
	if len(ex.Failures()) != total {
		t.Errorf("exact backend truncated failures: %d", len(ex.Failures()))
	}
}

// --- bounded state under streaming ---

// TestStreamingFootprintFlat pins the Streaming backend's O(1)-state
// contract (docs/metrics.md): ten times the records, the same
// footprint. FootprintBytes counts every buffer the backend keeps, so
// one that grows with the record count fails here.
func TestStreamingFootprintFlat(t *testing.T) {
	footprint := func(n int) int {
		rc := NewRecorderWith(Streaming, DefaultSustainedWindow)
		synthStream(42, n, rc)
		if rc.Count() != n {
			t.Fatalf("recorded %d of %d", rc.Count(), n)
		}
		return rc.FootprintBytes()
	}
	if small, large := footprint(100_000), footprint(1_000_000); small != large {
		t.Errorf("streaming footprint %d B after 1e5 records, %d B after 1e6: state grows with the run", small, large)
	}
}

// --- histogram internals ---

// TestBucketIndexMid pins the HDR bucket layout: every value maps to a
// bucket whose representative midpoint is within the sub-bucket width
// (relative error <= 2^-histSubBits, ~0.78% worst case bound; in
// practice <= 0.39% at the midpoint).
func TestBucketIndexMid(t *testing.T) {
	rng := simx.NewRNG(7)
	check := func(v uint64) {
		idx := bucketIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		mid := bucketMid(idx)
		if v < histSubCount {
			if mid != v {
				t.Fatalf("exact region: mid(%d) = %d", v, mid)
			}
			return
		}
		relErr := math.Abs(float64(mid)-float64(v)) / float64(v)
		if relErr > 1.0/histSubCount {
			t.Fatalf("bucketMid(%d) = %d, relative error %.5f", v, mid, relErr)
		}
	}
	for v := uint64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 10000; i++ {
		check(uint64(rng.Intn(1 << 40)))
	}
	check(math.MaxUint64)
	// Bucket indexes are monotone in the value.
	prev := -1
	for v := uint64(0); v < 100000; v += 37 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = idx
	}
}

func TestWindowedMatchesMapScan(t *testing.T) {
	const window = simx.Millisecond
	rng := simx.NewRNG(3)
	w := NewWindowed(window)
	buckets := make(map[int64]int)
	clock := simx.Time(0)
	for i := 0; i < 5000; i++ {
		clock += simx.Time(rng.Intn(2000)) * simx.Nanosecond
		w.Observe(clock)
		buckets[int64(clock/window)]++
	}
	best := 0
	for _, n := range buckets {
		if n > best {
			best = n
		}
	}
	if got := w.BestCount(); got != uint64(best) {
		t.Errorf("BestCount = %d, map scan = %d", got, best)
	}
}

// --- registry surface ---

func TestRegistryExportSortedAndDupPanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("zeta")
	reg.NewCounter("alpha").Add(3)
	out := reg.ExportJSON()
	want := `{"alpha":{"kind":"counter","value":3},"zeta":{"kind":"counter","value":0}}`
	if !bytes.Equal(out, []byte(want)) {
		t.Errorf("export = %s", out)
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "alpha" {
		t.Errorf("Names = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	reg.NewCounter("alpha")
}
