package main

import (
	"math"
	"slices"

	"triplea/internal/simx"
)

// simSummary holds a workload's simulated outcomes. Every field is a
// pure function of the seed, so two runs of one seed must agree
// exactly, traced or not.
type simSummary struct {
	MeanUs          float64
	P50us, P95us    float64
	P99us, P9999us  float64
	Samples, Beyond int // latency samples, and how many rank beyond p99.99
	IOPS            float64
	WriteAmp        float64
	TTRms           float64
	LatGain         float64 // paper-suite only, else 0
	IOPSGain        float64 // paper-suite only, else 0
}

// summarize derives the simulated metrics from a rep's measured arrays.
// A single measured array reports its own recorder's percentiles; several
// (paper-suite's Triple-A arrays) pool their latency samples, so p99.99
// has enough samples beyond it.
func summarize(arrays []arrayResult) simSummary {
	var s simSummary
	var measured []arrayResult
	var iopsSum float64
	var programs, hostWrites uint64
	for _, a := range arrays {
		if !a.Spec.Measured || a.Err != nil {
			continue
		}
		measured = append(measured, a)
		s.Samples += a.Completed
		iopsSum += a.SustainedIOPS
		programs += a.FTL.TotalWrites()
		hostWrites += a.FTL.HostWrites
		s.TTRms += float64(a.TTR) / float64(simx.Millisecond)
	}
	if len(measured) == 0 {
		return s
	}
	if len(measured) == 1 {
		m := measured[0]
		s.MeanUs = m.AvgLatency.Micros()
		s.P50us, s.P95us = m.P50.Micros(), m.P95.Micros()
		s.P99us, s.P9999us = m.P99.Micros(), m.P9999.Micros()
	} else {
		var pooled []simx.Time
		for _, a := range measured {
			pooled = append(pooled, a.Latencies...)
		}
		var sum simx.Time
		for _, l := range pooled {
			sum += l
		}
		slices.Sort(pooled)
		s.MeanUs = (sum / simx.Time(len(pooled))).Micros()
		s.P50us, s.P95us = nearestRank(pooled, 50).Micros(), nearestRank(pooled, 95).Micros()
		s.P99us, s.P9999us = nearestRank(pooled, 99).Micros(), nearestRank(pooled, 99.99).Micros()
	}
	s.Beyond = s.Samples - rank(99.99, s.Samples)
	s.IOPS = iopsSum / float64(len(measured))
	if hostWrites > 0 {
		s.WriteAmp = float64(programs) / float64(hostWrites)
	}
	s.LatGain, s.IOPSGain = gains(arrays)
	return s
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(p float64, n int) int {
	return max(1, min(int(math.Ceil(p/100*float64(n))), n))
}

func nearestRank(sorted []simx.Time, p float64) simx.Time {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// gains reproduces Fig 9 over the congested profiles (those with hot
// clusters): the mean of baseline/Triple-A average latency and of
// Triple-A/baseline sustained IOPS. Each ratio is computed exactly as
// experiments.RunResult.NormLatency and NormIOPS compute theirs, so the
// values match the paper pipeline bit for bit.
func gains(arrays []arrayResult) (lat, iops float64) {
	base := map[string]arrayResult{}
	n := 0
	for _, a := range arrays {
		if a.Spec.Profile.HotClusters == 0 || a.Err != nil {
			continue
		}
		if !a.Spec.Manager {
			base[a.Spec.Profile.Name] = a
			continue
		}
		b, ok := base[a.Spec.Profile.Name]
		if !ok {
			continue
		}
		lat += 1 / normLatency(b, a)
		iops += normIOPS(b, a)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return lat / float64(n), iops / float64(n)
}

func normLatency(base, auto arrayResult) float64 {
	if base.AvgLatency == 0 {
		return 1
	}
	return float64(auto.AvgLatency) / float64(base.AvgLatency)
}

func normIOPS(base, auto arrayResult) float64 {
	if base.SustainedIOPS <= 0 {
		return 1
	}
	return auto.SustainedIOPS / base.SustainedIOPS
}
