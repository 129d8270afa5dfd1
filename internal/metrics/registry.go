package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"triplea/internal/simx"
)

// Metric is one named statistic held by a Registry. Implementations are
// threadsafe by isolation: each lives inside exactly one single-threaded
// simulation (parallel sweeps give every run its own; `make race`
// checks it), so they carry no locks.
// Every metric exports itself as one deterministic JSON value; the
// unexported method keeps the implementation set closed to this
// package, which is what lets the registry promise a stable export
// schema.
type Metric interface {
	// Kind names the metric's type ("counter", "windowed",
	// "histogram", "distribution", "timebuckets").
	Kind() string
	exportJSON() []byte
}

// mustJSON marshals v, which by construction is a plain exported struct
// of numbers, and so cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("metrics: export marshal: %v", err))
	}
	return b
}

// Registry maps names to metrics and exports them uniformly. Names are
// dotted paths ("fault.pages_failed"); registration order is irrelevant
// because every read path sorts.
type Registry struct {
	names []string
	items map[string]Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: make(map[string]Metric)}
}

// Register adds m under name. Duplicate or empty names are programming
// errors and panic.
func (g *Registry) Register(name string, m Metric) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if _, ok := g.items[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	g.items[name] = m
	g.names = append(g.names, name)
}

// NewCounter registers and returns a fresh counter under name.
func (g *Registry) NewCounter(name string) *Counter {
	c := &Counter{}
	g.Register(name, c)
	return c
}

// Lookup reports the metric registered under name.
func (g *Registry) Lookup(name string) (Metric, bool) {
	m, ok := g.items[name]
	return m, ok
}

// Names reports all registered names, sorted.
func (g *Registry) Names() []string {
	out := make([]string, len(g.names))
	copy(out, g.names)
	sort.Strings(out)
	return out
}

// ExportJSON serialises every metric as one JSON object keyed by name.
// Output is byte-deterministic: names are sorted and each metric's
// value is a fixed-field struct, so two runs that observed the same
// sequence export identical bytes.
func (g *Registry) ExportJSON() []byte {
	names := g.Names()
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(mustJSON(n))
		buf.WriteByte(':')
		buf.Write(g.items[n].exportJSON())
	}
	buf.WriteByte('}')
	return buf.Bytes()
}

// Counter is a monotonically increasing event count.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v }

// Kind implements Metric.
func (c *Counter) Kind() string { return "counter" }

func (c *Counter) exportJSON() []byte {
	return mustJSON(struct {
		Kind  string `json:"kind"`
		Value uint64 `json:"value"`
	}{c.Kind(), c.v})
}

// Windowed tracks the best completion count over any aligned window of
// a fixed width, incrementally: observations arrive in nondecreasing
// time order (simulation completions are monotone), so one open bucket
// and a running best replace the per-query map scan. O(1) state, O(1)
// per observation.
type Windowed struct {
	window simx.Time
	cur    int64 // index of the open aligned window
	n      uint64
	best   uint64
	total  uint64
}

// NewWindowed returns a tracker for aligned windows of the given width.
func NewWindowed(window simx.Time) *Windowed {
	if window <= 0 {
		panic(fmt.Sprintf("metrics: windowed width %v", window))
	}
	return &Windowed{window: window, cur: -1}
}

// Observe counts one completion at the given time.
func (w *Windowed) Observe(at simx.Time) {
	if at < 0 {
		at = 0
	}
	b := int64(at / w.window)
	if b != w.cur {
		if b < w.cur {
			// Out-of-order straggler: fold into the open window
			// rather than reopening a closed one.
			b = w.cur
		} else {
			if w.n > w.best {
				w.best = w.n
			}
			w.cur, w.n = b, 0
		}
	}
	w.n++
	w.total++
}

// Window reports the configured window width.
func (w *Windowed) Window() simx.Time { return w.window }

// BestCount reports the highest count in any single window, including
// the still-open one.
func (w *Windowed) BestCount() uint64 {
	best := w.best
	if w.n > best {
		best = w.n
	}
	return best
}

// BestRate reports the best window's count as a per-second rate.
func (w *Windowed) BestRate() float64 {
	if w.total == 0 {
		return 0
	}
	return float64(w.BestCount()) / (float64(w.window) / float64(simx.Second))
}

// Kind implements Metric.
func (w *Windowed) Kind() string { return "windowed" }

func (w *Windowed) exportJSON() []byte {
	return mustJSON(struct {
		Kind   string    `json:"kind"`
		Window simx.Time `json:"window"`
		Best   uint64    `json:"best"`
		Total  uint64    `json:"total"`
	}{w.Kind(), w.window, w.BestCount(), w.total})
}

// Histogram buckets of the latency histogram: log-spaced with
// histSubBits mantissa bits, i.e. every power-of-two octave above
// 2^histSubBits splits into histSubCount equal sub-buckets, and values
// below histSubCount are exact. A bucket's relative width is at most
// 2^-histSubBits (0.78%), so reporting the bucket midpoint bounds the
// relative error of any quantile at 2^-(histSubBits+1) ≈ 0.39% — well
// inside the recorder's 1% accuracy contract (docs/metrics.md). The
// layout is fixed at compile time: indexing is pure bit arithmetic,
// independent of the data, which is what makes the exported histogram
// byte-deterministic.
const (
	histSubBits  = 7
	histSubCount = 1 << histSubBits // values below this are exact
	histBuckets  = (64-histSubBits)*histSubCount + histSubCount
)

// bucketIndex maps a nonnegative value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= histSubBits
	sub := int((v >> (uint(exp) - histSubBits)) & (histSubCount - 1))
	return (exp-histSubBits+1)*histSubCount + sub
}

// bucketMid reports the bucket's representative value: its midpoint,
// which is the value itself for the exact low range.
func bucketMid(idx int) uint64 {
	if idx < histSubCount {
		return uint64(idx)
	}
	exp := uint(idx/histSubCount - 1 + histSubBits)
	sub := uint64(idx % histSubCount)
	lo := uint64(1)<<exp | sub<<(exp-histSubBits)
	width := uint64(1) << (exp - histSubBits)
	return lo + width/2
}

// Histogram is a fixed-layout log-bucketed latency distribution:
// constant memory (histBuckets counters), allocation-free observation,
// quantiles by bucket walk. Exact min, max, and sum ride along so the
// distribution's edges and mean stay precise.
type Histogram struct {
	counts []uint64 // len histBuckets, allocated once at construction
	count  uint64
	min    simx.Time
	max    simx.Time
	sum    simx.Time
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets)}
}

// Observe adds one value. Negative values clamp to zero.
func (h *Histogram) Observe(v simx.Time) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(uint64(v))]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.sum += v
	h.count++
}

// Count reports observations.
func (h *Histogram) Count() uint64 { return h.count }

// Max reports the exact maximum.
func (h *Histogram) Max() simx.Time { return h.max }

// Sum reports the exact total.
func (h *Histogram) Sum() simx.Time { return h.sum }

// ValueAtRank reports the value at the given 1-based rank in the sorted
// observation sequence: the representative of the bucket holding that
// rank, clamped to the exact extremes (so rank 1 and rank count are
// exact).
func (h *Histogram) ValueAtRank(rank uint64) simx.Time {
	if h.count == 0 {
		return 0
	}
	if rank <= 1 {
		return h.min
	}
	if rank >= h.count {
		return h.max
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := simx.Time(bucketMid(i))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Quantile reports the p-th percentile, p in [0,100], by nearest rank:
// the value at rank ceil(p/100 · count), at least 1.
func (h *Histogram) Quantile(p float64) simx.Time {
	if h.count == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of [0,100]", p))
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	return h.ValueAtRank(rank)
}

// Kind implements Metric.
func (h *Histogram) Kind() string { return "histogram" }

func (h *Histogram) exportJSON() []byte {
	var p50, p95, p99 simx.Time
	if h.count > 0 {
		p50, p95, p99 = h.Quantile(50), h.Quantile(95), h.Quantile(99)
	}
	return mustJSON(struct {
		Kind  string    `json:"kind"`
		Count uint64    `json:"count"`
		Min   simx.Time `json:"min"`
		Max   simx.Time `json:"max"`
		Sum   simx.Time `json:"sum"`
		P50   simx.Time `json:"p50"`
		P95   simx.Time `json:"p95"`
		P99   simx.Time `json:"p99"`
	}{h.Kind(), h.count, h.min, h.max, h.sum, p50, p95, p99})
}

// Distribution accumulates per-request execution-time breakdowns — the
// component decomposition the paper's Figures 9/10/15 report — as a
// running sum plus count. O(1) state for what used to be derivable only
// from the full sample.
type Distribution struct {
	count uint64
	sum   Breakdown
}

// Observe folds one request's breakdown into the running sum.
func (d *Distribution) Observe(b Breakdown) {
	d.sum.Add(b)
	d.count++
}

// Sum reports the summed components.
func (d *Distribution) Sum() Breakdown { return d.sum }

// Mean reports the per-request mean of each component.
func (d *Distribution) Mean() Breakdown { return d.sum.Scale(int(d.count)) }

// Kind implements Metric.
func (d *Distribution) Kind() string { return "distribution" }

func (d *Distribution) exportJSON() []byte {
	return mustJSON(struct {
		Kind  string    `json:"kind"`
		Count uint64    `json:"count"`
		Sum   Breakdown `json:"sum"`
	}{d.Kind(), d.count, d.sum})
}
