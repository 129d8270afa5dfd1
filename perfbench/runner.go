package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/fault"
	"triplea/internal/ftl"
	"triplea/internal/metrics"
	"triplea/internal/simx"
	"triplea/internal/workload"
)

// arrayResult is what one array's run leaves behind once the array
// itself has been dropped.
type arrayResult struct {
	Spec arraySpec

	Attempted, Completed, Failed int
	Err                          error // run error, panic or consistency failure

	// Host time of each call into the simulator.
	Gen, New, Attach, Prepare, Run time.Duration
	// HeapBytes is the live heap after a forced GC with the array live.
	HeapBytes uint64

	// Simulated outcomes.
	AvgLatency    simx.Time
	P50, P95, P99 simx.Time
	P9999         simx.Time
	Latencies     []simx.Time // every completed request, Exact backend only
	SustainedIOPS float64
	FTL           ftl.Stats
	TTR           simx.Time
	ExportSHA     string // sha256 of Recorder.ExportJSON

	// Filled on traced runs only.
	Layers layerCounts
	Alloc  allocDelta
}

// Setup is the host time spent before Run: Generate + New + Attach +
// Prepare.
func (r *arrayResult) Setup() time.Duration { return r.Gen + r.New + r.Attach + r.Prepare }

// allocDelta is the Go runtime's allocation activity across one Run.
type allocDelta struct {
	Mallocs, Bytes uint64
	GCCycles       uint32
}

// runArray builds, runs and audits one array. A panic anywhere inside
// is recovered and turns every request of the array into a failure, so
// a simulator crash shows as a failed share rather than ending the
// benchmark. tr is nil on untraced runs.
func runArray(spec arraySpec, seed uint64, tr *tracer) (res arrayResult) {
	res.Spec = spec
	res.Attempted = spec.Profile.Requests
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("%s: panic: %v", spec.Name, p)
		}
		if res.Err != nil {
			res.Completed, res.Failed = 0, res.Attempted
		}
	}()
	parent := tr.begin("array:"+spec.Name, -1)
	defer tr.end(parent)

	sp := tr.begin("workload.Generate", parent)
	t0 := time.Now()
	reqs, _, err := workload.Generate(spec.Config.Geometry, spec.Profile, seed)
	res.Gen = time.Since(t0)
	tr.end(sp)
	if err != nil {
		res.Err = fmt.Errorf("%s: generate: %w", spec.Name, err)
		return res
	}
	res.Attempted = len(reqs)

	sp = tr.begin("array.New", parent)
	t0 = time.Now()
	a, err := array.New(spec.Config)
	res.New = time.Since(t0)
	tr.end(sp)
	if err != nil {
		res.Err = fmt.Errorf("%s: new: %w", spec.Name, err)
		return res
	}

	sp = tr.begin("attach", parent)
	t0 = time.Now()
	var mgr *core.Manager
	if spec.Manager {
		mgr = core.Attach(a, core.DefaultOptions())
	}
	var inj *fault.Injector
	if spec.Faults {
		inj = fault.Attach(a, fault.ReferencePlan(spec.Config.Geometry, reqs[len(reqs)-1].Arrival), fault.Options{Recover: true})
	}
	res.Attach = time.Since(t0)
	tr.end(sp)

	sp = tr.begin("array.Prepare", parent)
	t0 = time.Now()
	err = a.Prepare(reqs)
	res.Prepare = time.Since(t0)
	tr.end(sp)
	if err != nil {
		res.Err = fmt.Errorf("%s: prepare: %w", spec.Name, err)
		return res
	}

	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	sp = tr.begin("array.Run", parent)
	t0 = time.Now()
	rec, err := a.Run(reqs)
	res.Run = time.Since(t0)
	tr.end(sp)
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		res.Alloc = allocDelta{
			Mallocs:  after.Mallocs - before.Mallocs,
			Bytes:    after.TotalAlloc - before.TotalAlloc,
			GCCycles: after.NumGC - before.NumGC,
		}
	}
	if err != nil {
		res.Err = fmt.Errorf("%s: run: %w", spec.Name, err)
		return res
	}

	sp = tr.begin("collect", parent)
	if err := a.CheckConsistency(); err != nil {
		res.Err = fmt.Errorf("%s: consistency: %w", spec.Name, err)
		return res
	}
	res.Completed, res.Failed = rec.Count(), rec.FailedCount()
	if never := res.Attempted - res.Completed - res.Failed; never != 0 {
		res.Err = fmt.Errorf("%s: %d attempted, %d completed, %d failed", spec.Name, res.Attempted, res.Completed, res.Failed)
		return res
	}
	res.AvgLatency = rec.AvgLatency()
	res.P50, res.P95 = rec.Percentile(50), rec.Percentile(95)
	res.P99, res.P9999 = rec.Percentile(99), rec.Percentile(99.99)
	res.SustainedIOPS = rec.SustainedIOPS(metrics.DefaultSustainedWindow)
	res.FTL = a.FTL().Stats()
	sum := sha256.Sum256(rec.ExportJSON())
	res.ExportSHA = hex.EncodeToString(sum[:])
	if inj != nil {
		for _, r := range inj.Stats().Recoveries {
			res.TTR += r.TTR()
		}
	}
	if tr != nil {
		res.Layers = collectLayers(a, mgr, inj)
	}
	tr.end(sp)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapBytes = ms.HeapAlloc
	runtime.KeepAlive(a)

	if spec.Measured && rec.Backend() == metrics.Exact {
		res.Latencies = make([]simx.Time, 0, len(rec.Records()))
		for _, r := range rec.Records() {
			res.Latencies = append(res.Latencies, r.Latency())
		}
	}
	return res
}

// repResult is one pass over every array of a workload.
type repResult struct {
	Arrays []arrayResult
	Wall   time.Duration // sum of Run
	Setup  time.Duration // sum of Generate + New + Attach + Prepare
	Heap   uint64        // max HeapBytes
	Sim    simSummary
}

// runRep runs every array of the workload once, in order.
func runRep(specs []arraySpec, seed uint64, tr *tracer) repResult {
	var rr repResult
	for _, spec := range specs {
		res := runArray(spec, seed, tr)
		rr.Wall += res.Run
		rr.Setup += res.Setup()
		rr.Heap = max(rr.Heap, res.HeapBytes)
		rr.Arrays = append(rr.Arrays, res)
	}
	rr.Sim = summarize(rr.Arrays)
	for i := range rr.Arrays {
		rr.Arrays[i].Latencies = nil // summarized; keep reps small
	}
	return rr
}

// attempted and failed total the rep's operations.
func (rr *repResult) attempted() (n int) {
	for _, a := range rr.Arrays {
		n += a.Attempted
	}
	return n
}

func (rr *repResult) failed() (n int) {
	for _, a := range rr.Arrays {
		n += a.Failed
	}
	return n
}

// errors lists every array error of the rep.
func (rr *repResult) errors() []error {
	var errs []error
	for _, a := range rr.Arrays {
		if a.Err != nil {
			errs = append(errs, a.Err)
		}
	}
	return errs
}

// hashes lists each array's registry export digest, in array order.
func (rr *repResult) hashes() []string {
	out := make([]string, len(rr.Arrays))
	for i, a := range rr.Arrays {
		out[i] = a.ExportSHA
	}
	return out
}
