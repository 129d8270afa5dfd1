package metrics

import (
	"triplea/internal/simx"
)

// Snapshot is a recorder's summary statistics frozen into a plain
// value: what figure/table rendering needs, with no reference to the
// recorder or its samples. Snapshots are what parallel sweep workers
// hand back across the worker boundary, so nothing a worker still
// holds crosses it.
type Snapshot struct {
	Count  uint64
	Reads  uint64
	Writes uint64
	Failed uint64

	AvgLatency simx.Time
	MaxLatency simx.Time
	P50        simx.Time
	P95        simx.Time
	P99        simx.Time

	IOPS            float64
	SustainedIOPS   float64
	SustainedWindow simx.Time

	Sum Breakdown
}

// Snapshot freezes the recorder's summary statistics, computing
// sustained throughput over the given window.
func (rc *Recorder) Snapshot(window simx.Time) Snapshot {
	return Snapshot{
		Count:           uint64(rc.Count()),
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
