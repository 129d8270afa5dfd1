package metrics

import (
	"sort"

	"triplea/internal/simx"
)

// The recorder's fixed-footprint state: everything here is sized at
// construction and mutated in place, so the per-request record path
// performs zero allocations without the log (pinned by
// TestStreamingRecordPathDoesNotAllocate) and the state's memory is
// independent of run length.

const (
	// timeBucketCount is the fixed resolution of the completion /
	// failure timelines. When an observation lands past the covered
	// range the bucket width doubles and adjacent pairs merge, so the
	// array never grows.
	timeBucketCount = 256

	// timeBucketInitWidth starts the timelines at 16µs resolution
	// (4ms covered); realistic runs double a handful of times.
	timeBucketInitWidth = 16 * simx.Microsecond

	// seriesReservoirCap bounds the Figure-16 time-series reservoir.
	seriesReservoirCap = 2048

	// failureExemplarCap bounds the retained failure exemplars; the
	// full failure population lives in the requests.failed counter
	// and the failures.timeline buckets.
	failureExemplarCap = 128
)

// TimeBuckets is a fixed-size histogram over simulated time with
// range-doubling: counts of events per aligned bucket, merging pairs
// whenever an event lands beyond the covered range. Interval queries
// treat each bucket's mass as uniform, so CompletedBetween and
// FailedBetween are estimates (exact when the query bounds are
// bucket-aligned).
type TimeBuckets struct {
	width  simx.Time
	counts []uint64 // len timeBucketCount, allocated once
	used   int      // buckets [0, used) may be nonzero
	total  uint64
}

// NewTimeBuckets returns an empty timeline starting at the given bucket
// width.
func NewTimeBuckets(width simx.Time) *TimeBuckets {
	if width <= 0 {
		width = timeBucketInitWidth
	}
	return &TimeBuckets{width: width, counts: make([]uint64, timeBucketCount)}
}

// Observe counts one event at the given time.
func (tb *TimeBuckets) Observe(at simx.Time) {
	if at < 0 {
		at = 0
	}
	idx := int(at / tb.width)
	for idx >= timeBucketCount {
		tb.halve()
		idx = int(at / tb.width)
	}
	tb.counts[idx]++
	if idx+1 > tb.used {
		tb.used = idx + 1
	}
	tb.total++
}

// halve doubles the bucket width in place by merging adjacent pairs.
func (tb *TimeBuckets) halve() {
	for i := 0; i < timeBucketCount/2; i++ {
		tb.counts[i] = tb.counts[2*i] + tb.counts[2*i+1]
	}
	for i := timeBucketCount / 2; i < timeBucketCount; i++ {
		tb.counts[i] = 0
	}
	tb.width += tb.width // double: a dimensionless scale, not a new literal duration
	tb.used = (tb.used + 1) / 2
}

// CountBetween estimates how many events fell in [lo, hi), allocating
// each bucket's mass uniformly across its span.
func (tb *TimeBuckets) CountBetween(lo, hi simx.Time) float64 {
	if hi <= lo || tb.total == 0 {
		return 0
	}
	if lo < 0 {
		lo = 0
	}
	var mass float64
	for i := 0; i < tb.used; i++ {
		if tb.counts[i] == 0 {
			continue
		}
		bLo := simx.Time(i) * tb.width
		bHi := bLo + tb.width
		oLo, oHi := bLo, bHi
		if lo > oLo {
			oLo = lo
		}
		if hi < oHi {
			oHi = hi
		}
		if oHi <= oLo {
			continue
		}
		mass += float64(tb.counts[i]) * float64(oHi-oLo) / float64(tb.width)
	}
	return mass
}

// Kind implements Metric.
func (tb *TimeBuckets) Kind() string { return "timebuckets" }

func (tb *TimeBuckets) exportJSON() []byte {
	return mustJSON(struct {
		Kind  string    `json:"kind"`
		Width simx.Time `json:"width"`
		Total uint64    `json:"total"`
	}{tb.Kind(), tb.width, tb.total})
}

// strideReservoir keeps every stride-th observation in a fixed buffer;
// when the buffer fills it compacts in place (keeping every other
// entry) and doubles the stride, so the retained points always form an
// evenly spaced sample of the whole run. Deterministic — no randomness
// — and allocation-free after construction.
type strideReservoir struct {
	buf    []SeriesPoint // len seriesReservoirCap, allocated once
	n      int
	stride uint64
	seen   uint64
}

func newStrideReservoir() *strideReservoir {
	return &strideReservoir{buf: make([]SeriesPoint, seriesReservoirCap), stride: 1}
}

func (sr *strideReservoir) observe(p SeriesPoint) {
	onStride := sr.seen%sr.stride == 0
	sr.seen++
	if !onStride {
		return
	}
	if sr.n == len(sr.buf) {
		// buf[i] holds observation i*stride; keeping even i leaves
		// exactly the multiples of the doubled stride.
		for i := 0; i < sr.n/2; i++ {
			sr.buf[i] = sr.buf[2*i]
		}
		sr.n /= 2
		sr.stride *= 2
		if (sr.seen-1)%sr.stride != 0 {
			return
		}
	}
	sr.buf[sr.n] = p
	sr.n++
}

// sample reports at most n retained points in (Submit, ID) order,
// thinned with an even stride when more are retained.
func (sr *strideReservoir) sample(n int) []SeriesPoint {
	if n <= 0 || sr.n == 0 {
		return nil
	}
	out := make([]SeriesPoint, sr.n)
	copy(out, sr.buf[:sr.n])
	sort.Slice(out, func(i, j int) bool {
		if out[i].Submit != out[j].Submit {
			return out[i].Submit < out[j].Submit
		}
		return out[i].ID < out[j].ID
	})
	if len(out) <= n {
		return out
	}
	thinned := make([]SeriesPoint, 0, n)
	step := float64(len(out)) / float64(n)
	for i := 0; i < n; i++ {
		thinned = append(thinned, out[int(float64(i)*step)])
	}
	return thinned
}

// failureRing retains the most recent failureExemplarCap failures in a
// fixed ring.
type failureRing struct {
	buf  []Failure // len failureExemplarCap, allocated once
	next int
	full bool
}

func newFailureRing() *failureRing {
	return &failureRing{buf: make([]Failure, failureExemplarCap)}
}

func (fr *failureRing) add(f Failure) {
	fr.buf[fr.next] = f
	fr.next++
	if fr.next == len(fr.buf) {
		fr.next = 0
		fr.full = true
	}
}

// ordered reports the retained exemplars oldest-first.
func (fr *failureRing) ordered() []Failure {
	if !fr.full {
		out := make([]Failure, fr.next)
		copy(out, fr.buf[:fr.next])
		return out
	}
	out := make([]Failure, len(fr.buf))
	n := copy(out, fr.buf[fr.next:])
	copy(out[n:], fr.buf[:fr.next])
	return out
}
