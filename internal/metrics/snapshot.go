package metrics

import (
	"triplea/internal/simx"
)

// Snapshot is a recorder's summary statistics frozen into a plain
// value: what figure/table rendering needs, with no reference to the
// recorder or its samples. Snapshots are what parallel sweep workers
// hand back across the worker boundary (JSON-encoded), so nothing a
// worker still holds crosses it — and because
// encoding/json round-trips float64 exactly (shortest-representation
// encoding), a table rendered from a decoded snapshot is byte-identical
// to one rendered from the live recorder.
type Snapshot struct {
	Backend string `json:"backend"`

	Count  uint64 `json:"count"`
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	Failed uint64 `json:"failed"`

	AvgLatency simx.Time `json:"avg_latency"`
	MaxLatency simx.Time `json:"max_latency"`
	P50        simx.Time `json:"p50"`
	P95        simx.Time `json:"p95"`
	P99        simx.Time `json:"p99"`

	IOPS            float64   `json:"iops"`
	SustainedIOPS   float64   `json:"sustained_iops"`
	SustainedWindow simx.Time `json:"sustained_window"`

	Sum Breakdown `json:"sum_breakdown"`
}

// Snapshot freezes the recorder's summary statistics, computing
// sustained throughput over the given window.
func (rc *Recorder) Snapshot(window simx.Time) Snapshot {
	return Snapshot{
		Backend:         rc.backend.String(),
		Count:           rc.count,
		Reads:           rc.Reads(),
		Writes:          rc.Writes(),
		Failed:          uint64(rc.FailedCount()),
		AvgLatency:      rc.AvgLatency(),
		MaxLatency:      rc.MaxLatency(),
		P50:             rc.Percentile(50),
		P95:             rc.Percentile(95),
		P99:             rc.Percentile(99),
		IOPS:            rc.IOPS(),
		SustainedIOPS:   rc.SustainedIOPS(window),
		SustainedWindow: window,
		Sum:             rc.SumBreakdown(),
	}
}

// MeanBreakdown reports the per-request mean of each component.
func (s Snapshot) MeanBreakdown() Breakdown { return s.Sum.Scale(int(s.Count)) }
