package metrics

import (
	"triplea/internal/simx"
	"triplea/internal/units"
)

// Failure is one host request terminated by an injected fault rather
// than completed. Failures are kept apart from the completed records so
// every latency statistic keeps its meaning; availability accounting
// (internal/experiments' degraded-array study) reads both populations.
type Failure struct {
	ID     uint64
	Kind   RequestKind
	Pages  units.Pages
	Submit simx.Time
	At     simx.Time // when the array gave up on the request
}

// RecordFailure adds one fault-terminated request. The exact backend
// keeps the full log; the streaming backend keeps the count, the
// failure timeline, and a capped ring of exemplars, so fault-heavy
// million-request runs stay bounded.
func (rc *Recorder) RecordFailure(f Failure) {
	rc.failedCtr.Inc()
	if rc.backend == Streaming {
		rc.stream.failedAt.Observe(f.At)
		rc.stream.exemplars.add(f)
		return
	}
	rc.failures = append(rc.failures, f)
}

// Failures exposes the fault-terminated requests (callers must not
// mutate). Under streaming this is the retained exemplar window
// (oldest-first, at most failureExemplarCap entries), not the full
// population — FailedCount has the true total.
func (rc *Recorder) Failures() []Failure {
	if rc.backend == Streaming {
		return rc.stream.exemplars.ordered()
	}
	return rc.failures
}

// FailedCount reports how many requests a fault terminated.
func (rc *Recorder) FailedCount() int { return int(rc.failedCtr.Value()) }

// CompletedBetween counts requests that completed in [lo, hi) — the
// per-phase availability numerator. Exact backend: precise scan.
// Streaming backend: estimated from the completion timeline's
// range-doubling buckets (exact when [lo,hi) is bucket-aligned).
func (rc *Recorder) CompletedBetween(lo, hi simx.Time) int {
	if rc.backend == Streaming {
		return int(rc.stream.completed.CountBetween(lo, hi) + 0.5)
	}
	n := 0
	for _, r := range rc.records {
		if r.Complete >= lo && r.Complete < hi {
			n++
		}
	}
	return n
}

// FailedBetween counts requests that failed in [lo, hi), with the same
// backend split as CompletedBetween.
func (rc *Recorder) FailedBetween(lo, hi simx.Time) int {
	if rc.backend == Streaming {
		return int(rc.stream.failedAt.CountBetween(lo, hi) + 0.5)
	}
	n := 0
	for _, f := range rc.failures {
		if f.At >= lo && f.At < hi {
			n++
		}
	}
	return n
}

// Availability reports the completed fraction of all requests settled
// in [lo, hi), or 1 when none settled there.
func (rc *Recorder) Availability(lo, hi simx.Time) float64 {
	done := rc.CompletedBetween(lo, hi)
	failed := rc.FailedBetween(lo, hi)
	if done+failed == 0 {
		return 1
	}
	return float64(done) / float64(done+failed)
}
