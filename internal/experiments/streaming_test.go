package experiments

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"triplea/internal/array"
	"triplea/internal/metrics"
	"triplea/internal/simx"
	"triplea/internal/workload"
)

// runBackend executes one seeded micro-workload on a full array built
// with the given recorder backend and returns the recorder.
func runBackend(t *testing.T, backend metrics.Backend, seed uint64) *metrics.Recorder {
	t.Helper()
	s := NewSuite()
	s.Seed = seed
	s.Config.Metrics = backend
	reqs, _, err := workload.Generate(s.Config.Geometry, workload.MicroRead(2, 2000, 120_000), seed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := array.New(s.Config)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestStreamingRunDeterminism extends the reproducibility contract to
// the streaming backend's registry export: two same-seed runs of the
// full array must serialize byte-identical registry JSON (histogram
// buckets, windowed tracker, timelines, fault counters and all), and a
// different seed must not.
func TestStreamingRunDeterminism(t *testing.T) {
	first := runBackend(t, metrics.Streaming, 42).ExportJSON()
	second := runBackend(t, metrics.Streaming, 42).ExportJSON()
	if !bytes.Equal(first, second) {
		t.Fatalf("same-seed streaming registry exports differ:\n%s\n---\n%s", first, second)
	}
	other := runBackend(t, metrics.Streaming, 43).ExportJSON()
	if bytes.Equal(first, other) {
		t.Fatal("different seeds produced byte-identical registry exports")
	}
}

// TestRecorderMatchesSortedReference runs one seeded workload on the
// real array and checks the recorder's summaries against a reference
// the test computes from the per-request log: counts, mean, IOPS and
// sustained IOPS exactly, P50/P95/P99 within the 1% accuracy contract
// of the sorted latencies' nearest-rank values (see docs/metrics.md),
// and the maximum exactly. A run without the log must report the same
// summaries, byte for byte.
func TestRecorderMatchesSortedReference(t *testing.T) {
	rec := runBackend(t, metrics.Exact, 42)
	records := rec.Records()
	if len(records) == 0 || len(records) != rec.Count() {
		t.Fatalf("logged %d records of %d", len(records), rec.Count())
	}

	var reads, writes uint64
	var sum simx.Time
	first, last := records[0].Submit, records[0].Complete
	lats := make([]simx.Time, len(records))
	windows := make(map[int64]int)
	busiest := 0
	for i, r := range records {
		if r.Kind == metrics.Read {
			reads++
		} else {
			writes++
		}
		lats[i] = r.Latency()
		sum += lats[i]
		first, last = min(first, r.Submit), max(last, r.Complete)
		w := int64(r.Complete / SustainedWindow)
		windows[w]++
		busiest = max(busiest, windows[w])
	}
	slices.Sort(lats)
	n := len(records)

	if rec.Reads() != reads || rec.Writes() != writes {
		t.Errorf("reads/writes %d/%d, reference %d/%d", rec.Reads(), rec.Writes(), reads, writes)
	}
	if want := sum / simx.Time(n); rec.AvgLatency() != want {
		t.Errorf("AvgLatency = %v, reference %v", rec.AvgLatency(), want)
	}
	if want := float64(n) / (float64(last-first) / float64(simx.Second)); rec.IOPS() != want {
		t.Errorf("IOPS = %v, reference %v", rec.IOPS(), want)
	}
	if want := float64(busiest) / (float64(SustainedWindow) / float64(simx.Second)); rec.SustainedIOPS(SustainedWindow) != want {
		t.Errorf("SustainedIOPS = %v, reference map scan %v", rec.SustainedIOPS(SustainedWindow), want)
	}
	for _, p := range []float64{50, 95, 99} {
		rank := min(max(int(math.Ceil(p/100*float64(n))), 1), n)
		want, got := lats[rank-1], rec.Percentile(p)
		relErr := math.Abs(float64(got)-float64(want)) / float64(want)
		if relErr > 0.01 {
			t.Errorf("P%v = %v, reference %v: relative error %.4f > 1%%", p, got, want, relErr)
		}
	}
	if want := lats[n-1]; rec.MaxLatency() != want {
		t.Errorf("MaxLatency = %v, reference %v", rec.MaxLatency(), want)
	}

	stream := runBackend(t, metrics.Streaming, 42)
	if a, b := rec.ExportJSON(), stream.ExportJSON(); !bytes.Equal(a, b) {
		t.Errorf("the run without the log exports other summaries:\nexact     %s\nstreaming %s", a, b)
	}
}
