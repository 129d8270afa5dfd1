// Package metrics collects and summarises per-request measurements:
// latency distributions (CDFs, percentiles, long tails), IOPS, and the
// execution-time breakdown the paper reports in Figure 15 (RC stall,
// switch stall, endpoint stall, link-contention time, storage-contention
// time, cell time, transfer times).
package metrics

import (
	"fmt"
	"slices"
	"unsafe"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// Breakdown decomposes one request's life, or sums many requests'.
//
// LinkCause and StorageCause re-attribute the upstream queueing
// (RCStall + SwitchStall) to its root cause, the way the paper
// classifies stalled requests: a request backed up behind a saturated
// shared bus counts toward link contention, one backed up behind a busy
// FIMM toward storage contention. They are views onto RCStall +
// SwitchStall, so Total excludes them.
type Breakdown struct {
	RCStall     simx.Time // waiting for root-complex queue admission / port
	SwitchStall simx.Time // held in switch ingress for a busy egress
	EPWait      simx.Time // endpoint queue / write-buffer admission
	StorageWait simx.Time // die queueing inside the FIMM (storage contention)
	LinkWait    simx.Time // FIMM channel + cluster shared bus queueing (link contention)
	Texe        simx.Time // flash cell time
	LinkXfer    simx.Time // FIMM channel + shared bus data movement
	FabricXfer  simx.Time // PCI-E wire serialisation, propagation, routing

	LinkCause    simx.Time // upstream stall attributed to link contention
	StorageCause simx.Time // upstream stall attributed to storage contention
}

// Add accumulates b into the receiver.
func (b *Breakdown) Add(o Breakdown) {
	b.RCStall += o.RCStall
	b.SwitchStall += o.SwitchStall
	b.EPWait += o.EPWait
	b.StorageWait += o.StorageWait
	b.LinkWait += o.LinkWait
	b.Texe += o.Texe
	b.LinkXfer += o.LinkXfer
	b.FabricXfer += o.FabricXfer
	b.LinkCause += o.LinkCause
	b.StorageCause += o.StorageCause
}

// AttributeShare splits the upstream queueing (RCStall + SwitchStall)
// into LinkCause and StorageCause with an externally supplied link
// share in [0,1] — the array derives it from the target cluster's
// shared-bus saturation and the request's own device-side waits.
func (b *Breakdown) AttributeShare(linkShare float64) {
	upstream := b.RCStall + b.SwitchStall
	if upstream <= 0 || b.LinkWait+b.EPWait+b.StorageWait <= 0 {
		b.LinkCause, b.StorageCause = 0, 0
		return
	}
	if linkShare < 0 {
		linkShare = 0
	}
	if linkShare > 1 {
		linkShare = 1
	}
	b.LinkCause = simx.Time(float64(upstream) * linkShare)
	b.StorageCause = upstream - b.LinkCause
}

// Total reports the sum of all components.
func (b Breakdown) Total() simx.Time {
	return b.RCStall + b.SwitchStall + b.EPWait + b.StorageWait +
		b.LinkWait + b.Texe + b.LinkXfer + b.FabricXfer
}

// QueueStall reports the time spent stalled in queues (the paper's
// queue stall metric): everything except execution and data movement.
func (b Breakdown) QueueStall() simx.Time {
	return b.RCStall + b.SwitchStall + b.EPWait + b.StorageWait + b.LinkWait
}

// LinkContention reports the link-contention component: direct bus
// queueing plus the upstream backlog it caused.
func (b Breakdown) LinkContention() simx.Time { return b.LinkWait + b.LinkCause }

// StorageContention reports the storage-contention component: queueing
// for the device itself, at the endpoint and on the dies, plus the
// upstream backlog it caused.
func (b Breakdown) StorageContention() simx.Time {
	return b.EPWait + b.StorageWait + b.StorageCause
}

// Scale divides every component by n (for means).
func (b Breakdown) Scale(n int) Breakdown {
	if n <= 0 {
		return Breakdown{}
	}
	d := simx.Time(n)
	return Breakdown{
		RCStall: b.RCStall / d, SwitchStall: b.SwitchStall / d,
		EPWait: b.EPWait / d, StorageWait: b.StorageWait / d,
		LinkWait: b.LinkWait / d, Texe: b.Texe / d,
		LinkXfer: b.LinkXfer / d, FabricXfer: b.FabricXfer / d,
		LinkCause: b.LinkCause / d, StorageCause: b.StorageCause / d,
	}
}

// RequestKind distinguishes reads from writes in the records.
type RequestKind uint8

const (
	Read RequestKind = iota
	Write
)

func (k RequestKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	}
	return "unknown"
}

// Record is one completed request's measurement.
type Record struct {
	ID       uint64
	Kind     RequestKind
	Pages    units.Pages
	Submit   simx.Time
	Complete simx.Time
	Breakdown
}

// Latency reports the request's end-to-end latency.
func (r Record) Latency() simx.Time { return r.Complete - r.Submit }

// CDFPoint is one point of a cumulative distribution function.
type CDFPoint struct {
	LatencyUS float64 // latency in microseconds
	Fraction  float64 // fraction of requests at or below it
}

// SeriesPoint is one downsampled (submit-time, latency) pair — the
// paper's Figure 16 time-series view, reported as values so consumers
// never hold raw records.
type SeriesPoint struct {
	ID      uint64
	Submit  simx.Time
	Latency simx.Time
}

// Backend selects whether the Recorder keeps the per-request log. Every
// summary statistic comes from the same fixed-footprint state on either
// backend, so the choice changes no number the recorder reports.
type Backend uint8

const (
	// Exact also appends every Record and Failure to the per-request
	// log behind Records and Failures, which the golden serializers and
	// per-request consumers read. Its memory grows linearly with run
	// length. The zero value, so it is the default.
	Exact Backend = iota
	// Streaming keeps no log: recorder memory is flat regardless of run
	// length, and Failures reports a capped ring of recent exemplars.
	Streaming
)

func (b Backend) String() string {
	switch b {
	case Exact:
		return "exact"
	case Streaming:
		return "streaming"
	}
	return "unknown"
}

// DefaultSustainedWindow is the aligned-window width the sustained-IOPS
// tracker is built with — the same 5ms window the paper's
// sustained-throughput comparison uses (experiments.SustainedWindow
// aliases it).
const DefaultSustainedWindow = 5 * simx.Millisecond

// Recorder accumulates per-request measurements for one run. All
// statistics live in a Registry of named metrics (uniform JSON export)
// and are answered from fixed-footprint state: a log-bucketed latency
// histogram, a windowed sustained-IOPS tracker, completion and failure
// timelines, and a stride-reservoir series (streaming.go). The backend
// decides only whether the per-request log is kept as well.
type Recorder struct {
	backend Backend
	reg     *Registry

	reads, writes *Counter
	failedCtr     *Counter
	dist          *Distribution
	lat           *Histogram
	sustained     *Windowed
	completed     *TimeBuckets
	failedAt      *TimeBuckets
	series        *strideReservoir
	exemplars     *failureRing

	firstSubmit  simx.Time
	lastComplete simx.Time

	// The per-request log, appended under Exact only.
	records  []Record
	failures []Failure // fault-terminated requests (failures.go)
}

// NewRecorder returns an empty recorder that keeps the per-request log.
func NewRecorder() *Recorder {
	return NewRecorderWith(Exact, DefaultSustainedWindow)
}

// NewRecorderWith returns an empty recorder on the given backend. The
// window sizes the sustained-IOPS tracker; zero or negative selects
// DefaultSustainedWindow.
func NewRecorderWith(b Backend, window simx.Time) *Recorder {
	if window <= 0 {
		window = DefaultSustainedWindow
	}
	reg := NewRegistry()
	rc := &Recorder{
		backend:     b,
		reg:         reg,
		reads:       reg.NewCounter("requests.reads"),
		writes:      reg.NewCounter("requests.writes"),
		failedCtr:   reg.NewCounter("requests.failed"),
		dist:        &Distribution{},
		lat:         NewHistogram(),
		sustained:   NewWindowed(window),
		completed:   NewTimeBuckets(timeBucketInitWidth),
		failedAt:    NewTimeBuckets(timeBucketInitWidth),
		series:      newStrideReservoir(),
		exemplars:   newFailureRing(),
		firstSubmit: -1,
	}
	reg.Register("latency.breakdown", rc.dist)
	reg.Register("latency", rc.lat)
	reg.Register("iops.sustained", rc.sustained)
	reg.Register("completions.timeline", rc.completed)
	reg.Register("failures.timeline", rc.failedAt)
	return rc
}

// Backend reports which backend the recorder runs on.
func (rc *Recorder) Backend() Backend { return rc.backend }

// Registry exposes the recorder's metric registry, e.g. for the array
// to register its fault counters next to the request metrics.
func (rc *Recorder) Registry() *Registry { return rc.reg }

// ExportJSON serialises the full registry deterministically.
func (rc *Recorder) ExportJSON() []byte { return rc.reg.ExportJSON() }

// Record adds one completed request.
func (rc *Recorder) Record(r Record) {
	if r.Complete < r.Submit {
		panic(fmt.Sprintf("metrics: completion %v before submit %v", r.Complete, r.Submit))
	}
	lat := r.Latency()
	rc.dist.Observe(r.Breakdown)
	rc.lat.Observe(lat)
	rc.sustained.Observe(r.Complete)
	rc.completed.Observe(r.Complete)
	rc.series.observe(SeriesPoint{ID: r.ID, Submit: r.Submit, Latency: lat})
	if r.Kind == Read {
		rc.reads.Inc()
	} else {
		rc.writes.Inc()
	}
	if rc.firstSubmit < 0 || r.Submit < rc.firstSubmit {
		rc.firstSubmit = r.Submit
	}
	if r.Complete > rc.lastComplete {
		rc.lastComplete = r.Complete
	}
	if rc.backend == Exact {
		rc.records = append(rc.records, r)
	}
}

// Reserve makes room for n more records, so a run that knows its
// request count grows the Exact log once instead of regrowing it as
// records arrive. Streaming keeps no log and ignores it.
func (rc *Recorder) Reserve(n int) {
	if rc.backend == Exact {
		rc.records = slices.Grow(rc.records, n)
	}
}

// Count reports completed requests.
func (rc *Recorder) Count() int { return int(rc.lat.Count()) }

// Reads and Writes report per-kind counts.
func (rc *Recorder) Reads() uint64  { return rc.reads.Value() }
func (rc *Recorder) Writes() uint64 { return rc.writes.Value() }

// Records exposes the per-request log (callers must not mutate). The
// streaming backend keeps no log and reports nil.
func (rc *Recorder) Records() []Record { return rc.records }

// AvgLatency reports the mean end-to-end latency.
func (rc *Recorder) AvgLatency() simx.Time {
	if rc.lat.Count() == 0 {
		return 0
	}
	return rc.lat.Sum() / simx.Time(rc.lat.Count())
}

// IOPS reports completed requests per second of simulated wall time
// between the first submission and the last completion.
func (rc *Recorder) IOPS() float64 {
	span := rc.lastComplete - rc.firstSubmit
	if rc.lat.Count() == 0 || span <= 0 {
		return 0
	}
	return float64(rc.lat.Count()) / (float64(span) / float64(simx.Second))
}

// SustainedIOPS reports the array's sustained throughput: the highest
// completion rate over any aligned window of the given width. Under a
// bursty offered load a congested array's sustained rate pins at its
// bottleneck capacity while an uncongested one tracks the burst rate —
// the "sustained throughput" the paper's abstract compares. The
// incremental tracker is built for one width (NewRecorderWith's
// window), so window must be that width; zero or negative reports 0.
func (rc *Recorder) SustainedIOPS(window simx.Time) float64 {
	if window <= 0 {
		return 0
	}
	if window != rc.sustained.Window() {
		panic(fmt.Sprintf("metrics: sustained IOPS over %v from a recorder built for %v", window, rc.sustained.Window()))
	}
	return rc.sustained.BestRate()
}

// SumBreakdown reports the summed component times.
func (rc *Recorder) SumBreakdown() Breakdown { return rc.dist.Sum() }

// MeanBreakdown reports the per-request mean of each component.
func (rc *Recorder) MeanBreakdown() Breakdown { return rc.dist.Mean() }

// Percentile reports the p-th latency percentile, p in [0,100], by the
// nearest-rank rule: the histogram bucket holding that rank (at most
// 0.39% relative error, exact below histSubCount nanoseconds).
func (rc *Recorder) Percentile(p float64) simx.Time { return rc.lat.Quantile(p) }

// MaxLatency reports the slowest request (tracked exactly).
func (rc *Recorder) MaxLatency() simx.Time { return rc.lat.Max() }

// CDF samples the latency CDF at n evenly spaced fractions, suitable
// for plotting against the paper's Figures 1 and 11. The point at
// fraction f is the value at rank floor(f·count), at least 1.
func (rc *Recorder) CDF(n int) []CDFPoint {
	count := rc.lat.Count()
	if count == 0 || n <= 0 {
		return nil
	}
	pts := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		frac := float64(i) / float64(n)
		pts = append(pts, CDFPoint{
			LatencyUS: rc.lat.ValueAtRank(uint64(frac * float64(count))).Micros(),
			Fraction:  frac,
		})
	}
	return pts
}

// Series reports (submit-time, latency) points downsampled to at most n,
// in (submit, ID) order — the paper's Figure 16 time-series view. It
// samples the stride reservoir, so long runs return an evenly spaced
// subset of the requests rather than every one.
func (rc *Recorder) Series(n int) []SeriesPoint { return rc.series.sample(n) }

// FootprintBytes estimates the recorder's live metric-state memory: the
// fixed structures every recorder keeps, plus the per-request log under
// Exact. The log counts at its capacity, so records made room for by
// Reserve count before they arrive. It is what
// TestStreamingFootprintFlat pins flat across run lengths, not an exact
// heap accounting.
func (rc *Recorder) FootprintBytes() int {
	const (
		recordSize  = int(unsafe.Sizeof(Record{}))
		failureSize = int(unsafe.Sizeof(Failure{}))
		pointSize   = int(unsafe.Sizeof(SeriesPoint{}))
	)
	return len(rc.lat.counts)*8 +
		len(rc.completed.counts)*8 +
		len(rc.failedAt.counts)*8 +
		len(rc.series.buf)*pointSize +
		len(rc.exemplars.buf)*failureSize +
		cap(rc.records)*recordSize +
		cap(rc.failures)*failureSize
}
