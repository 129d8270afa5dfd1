package metrics

import (
	"bytes"
	"slices"
	"testing"

	"triplea/internal/simx"
)

// fuzzPercentiles are the ranks FuzzRecorder checks, edges included.
var fuzzPercentiles = []float64{0, 1, 25, 50, 90, 95, 99, 99.9, 99.99, 100}

// FuzzRecorder feeds one random sequence of Record and RecordFailure
// calls, at nondecreasing completion times as the simulator makes them,
// to an Exact and a Streaming recorder. Each three bytes of script are
// one call: the first picks record or failure, the request kind and the
// latency's octave; the second scales step into the time since the
// previous call; the third is the latency's mantissa, so latencies span
// the histogram's exact range up to seconds. The checks:
//   - the two recorders agree on every summary (their registry exports
//     are byte-identical), and Streaming's failure exemplars are the
//     tail of Exact's failure log;
//   - every Percentile is within the histogram's bound (2^-8 relative,
//     exact below histSubCount ns) of the nearest-rank value of the
//     sorted Records() latencies, and MaxLatency is exact;
//   - SustainedIOPS equals a map scan of the records, and the
//     timelines hold every completion and failure.
func FuzzRecorder(f *testing.F) {
	f.Add(uint16(0), []byte{0, 1, 5, 1, 0, 200, 2, 3, 7})
	f.Add(uint16(1000), []byte{0x40, 7, 255, 0x41, 0, 1, 0x22, 255, 3, 0x13, 9, 128, 0x7e, 2, 60})
	f.Add(uint16(65535), []byte{0x5c, 255, 255, 0, 255, 0, 0x5c, 255, 255, 0x5d, 1, 1})
	f.Fuzz(func(t *testing.T, scale uint16, script []byte) {
		exact := NewRecorderWith(Exact, DefaultSustainedWindow)
		stream := NewRecorderWith(Streaming, DefaultSustainedWindow)
		var now simx.Time
		for i := 0; i+2 < len(script) && i/3 < 4096; i += 3 {
			op, step, mant := script[i], script[i+1], script[i+2]
			now += simx.Time(step) * simx.Time(1+int64(scale))
			lat := min(simx.Time(mant)<<(op>>2%24), now)
			kind := RequestKind(op >> 1 & 1)
			if op&1 == 0 {
				r := Record{ID: uint64(i), Kind: kind, Pages: 1, Submit: now - lat, Complete: now,
					Breakdown: Breakdown{Texe: lat / 2, LinkWait: lat / 4}}
				exact.Record(r)
				stream.Record(r)
			} else {
				fl := Failure{ID: uint64(i), Kind: kind, Pages: 1, Submit: now - lat, At: now}
				exact.RecordFailure(fl)
				stream.RecordFailure(fl)
			}
		}

		if a, b := exact.ExportJSON(), stream.ExportJSON(); !bytes.Equal(a, b) {
			t.Fatalf("registry exports differ:\nexact     %s\nstreaming %s", a, b)
		}
		if a, b := exact.Snapshot(DefaultSustainedWindow), stream.Snapshot(DefaultSustainedWindow); a != b {
			t.Errorf("snapshots differ:\nexact     %+v\nstreaming %+v", a, b)
		}
		for _, p := range fuzzPercentiles {
			if a, b := exact.Percentile(p), stream.Percentile(p); a != b {
				t.Errorf("P%v: exact %v, streaming %v", p, a, b)
			}
		}
		if a, b := exact.CDF(10), stream.CDF(10); !slices.Equal(a, b) {
			t.Errorf("CDFs differ:\nexact     %v\nstreaming %v", a, b)
		}
		if a, b := exact.Series(64), stream.Series(64); !slices.Equal(a, b) {
			t.Errorf("series differ:\nexact     %v\nstreaming %v", a, b)
		}
		for _, span := range [][2]simx.Time{{0, now / 3}, {now / 3, 2 * now / 3}, {2 * now / 3, now + 1}} {
			if a, b := exact.Availability(span[0], span[1]), stream.Availability(span[0], span[1]); a != b {
				t.Errorf("availability over %v: exact %v, streaming %v", span, a, b)
			}
		}
		log, ring := exact.Failures(), stream.Failures()
		if len(log) != exact.FailedCount() || !slices.Equal(ring, log[len(log)-len(ring):]) ||
			len(ring) != min(len(log), failureExemplarCap) {
			t.Errorf("streaming keeps %d failure exemplars, not the last %d of exact's %d logged",
				len(ring), min(len(log), failureExemplarCap), len(log))
		}

		records := exact.Records()
		if len(records) != exact.Count() {
			t.Fatalf("exact logged %d records of %d", len(records), exact.Count())
		}
		if stream.Records() != nil {
			t.Errorf("streaming logged %d records", len(stream.Records()))
		}
		if len(records) > 0 {
			sorted := sortedLatencies(exact)
			for _, p := range fuzzPercentiles {
				got, want := exact.Percentile(p), nearestRankOf(sorted, p)
				diff := max(got-want, want-got)
				if (want < histSubCount && diff != 0) || diff*256 > want {
					t.Errorf("P%v = %v, nearest rank of the sorted records %v: outside the histogram bound", p, got, want)
				}
			}
			if got, want := exact.MaxLatency(), sorted[len(sorted)-1]; got != want {
				t.Errorf("MaxLatency = %v, want %v", got, want)
			}
		}
		if got, want := exact.SustainedIOPS(DefaultSustainedWindow), mapScanIOPS(records, DefaultSustainedWindow); got != want {
			t.Errorf("SustainedIOPS = %v, map scan of the records %v", got, want)
		}
		// A query past the last bucket takes every bucket's whole mass.
		const forever = simx.Time(1) << 62
		if got := exact.CompletedBetween(0, forever); got != exact.Count() {
			t.Errorf("completion timeline holds %d of %d completions", got, exact.Count())
		}
		if got := exact.FailedBetween(0, forever); got != exact.FailedCount() {
			t.Errorf("failure timeline holds %d of %d failures", got, exact.FailedCount())
		}
	})
}
