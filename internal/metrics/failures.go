package metrics

import (
	"triplea/internal/simx"
	"triplea/internal/units"
)

// Failure is one host request terminated by an injected fault rather
// than completed. Failures are kept apart from the completed requests
// so every latency statistic keeps its meaning; availability accounting
// (internal/experiments' degraded-array study) reads both timelines.
type Failure struct {
	ID     uint64
	Kind   RequestKind
	Pages  units.Pages
	Submit simx.Time
	At     simx.Time // when the array gave up on the request
}

// RecordFailure adds one fault-terminated request: it counts it, folds
// it into the failure timeline and the ring of recent exemplars, and
// under Exact also appends it to the per-request log, so fault-heavy
// million-request runs stay bounded on Streaming.
func (rc *Recorder) RecordFailure(f Failure) {
	rc.failedCtr.Inc()
	rc.failedAt.Observe(f.At)
	rc.exemplars.add(f)
	if rc.backend == Exact {
		rc.failures = append(rc.failures, f)
	}
}

// Failures exposes the fault-terminated requests (callers must not
// mutate): the full log under Exact; under Streaming the retained
// exemplar window (oldest-first, at most failureExemplarCap entries),
// not the full population — FailedCount has the true total.
func (rc *Recorder) Failures() []Failure {
	if rc.backend == Exact {
		return rc.failures
	}
	return rc.exemplars.ordered()
}

// FailedCount reports how many requests a fault terminated.
func (rc *Recorder) FailedCount() int { return int(rc.failedCtr.Value()) }

// CompletedBetween counts requests that completed in [lo, hi) — the
// per-phase availability numerator — estimated from the completion
// timeline's range-doubling buckets (exact when [lo,hi) is
// bucket-aligned).
func (rc *Recorder) CompletedBetween(lo, hi simx.Time) int {
	return int(rc.completed.CountBetween(lo, hi) + 0.5)
}

// FailedBetween counts requests that failed in [lo, hi), estimated the
// same way from the failure timeline.
func (rc *Recorder) FailedBetween(lo, hi simx.Time) int {
	return int(rc.failedAt.CountBetween(lo, hi) + 0.5)
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
