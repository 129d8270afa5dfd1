package workload

import (
	"fmt"
	"math"

	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/units"
)

// HotSet reports which clusters a profile heats for a given geometry.
// Hot clusters spread round-robin across switches unless the profile
// pins them to one switch.
func HotSet(g topo.Geometry, p Profile) []topo.ClusterID {
	if p.HotClusters <= 0 {
		return nil
	}
	n := p.HotClusters
	if n > g.TotalClusters() {
		n = g.TotalClusters()
	}
	out := make([]topo.ClusterID, 0, n)
	if p.HotSameSwitch {
		for i := 0; i < n && i < g.ClustersPerSwitch; i++ {
			out = append(out, topo.ClusterID{Switch: 0, Cluster: i})
		}
		return out
	}
	for i := 0; i < n; i++ {
		out = append(out, topo.ClusterID{
			Switch:  i % g.Switches,
			Cluster: (i / g.Switches) % g.ClustersPerSwitch,
		})
	}
	return out
}

// GenStats reports what the generator actually produced, so Table 1
// characteristics can be verified against the synthetic trace.
type GenStats struct {
	Requests    int
	Reads       int
	RandomReads int
	Writes      int
	RandomWrite int
	HotRequests int
	HotClusters []topo.ClusterID
}

// ReadRatio reports the generated read fraction.
func (s GenStats) ReadRatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Requests)
}

// HotIORatio reports the generated hot-cluster traffic fraction.
func (s GenStats) HotIORatio() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.HotRequests) / float64(s.Requests)
}

// ReadRandomness reports the random fraction among reads.
func (s GenStats) ReadRandomness() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.RandomReads) / float64(s.Reads)
}

// WriteRandomness reports the random fraction among writes.
func (s GenStats) WriteRandomness() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.RandomWrite) / float64(s.Writes)
}

// Generate synthesises a trace with the profile's characteristics on
// the given geometry, deterministically for a seed. The address space
// assumes the FTL's clustered layout: cluster c owns a contiguous LPN
// range, so targeting a cluster means drawing LPNs from its range.
func Generate(g topo.Geometry, p Profile, seed uint64) ([]trace.Request, GenStats, error) {
	if err := g.Validate(); err != nil {
		return nil, GenStats{}, err
	}
	if p.Requests <= 0 {
		return nil, GenStats{}, fmt.Errorf("workload %s: Requests %d must be positive", p.Name, p.Requests)
	}
	if p.RateIOPS <= 0 {
		return nil, GenStats{}, fmt.Errorf("workload %s: RateIOPS %v must be positive", p.Name, p.RateIOPS)
	}
	pages := p.PagesPer
	if pages <= 0 {
		pages = units.Page
	}
	footprint := p.Footprint
	pagesPerCluster := g.PagesPerFIMM() * units.Pages(g.FIMMsPerCluster)
	if footprint <= 0 || footprint > pagesPerCluster {
		footprint = pagesPerCluster
	}

	rng := simx.NewRNG(seed)
	var zipf *zipfSampler
	if p.ZipfSkew > 0 {
		zipf = newZipfSampler(footprint.Int64(), p.ZipfSkew)
	}
	hot := HotSet(g, p)
	hotFlats := make(map[int]bool, len(hot))
	for _, c := range hot {
		hotFlats[c.Flat(&g)] = true
	}
	var cold []int
	for flat := 0; flat < g.TotalClusters(); flat++ {
		if !hotFlats[flat] {
			cold = append(cold, flat)
		}
	}

	stats := GenStats{HotClusters: hot}
	// Per-cluster sequential cursors, one per direction.
	type cursor struct{ read, write int64 }
	cursors := make(map[int]*cursor)

	meanGapNS := float64(simx.Second) / p.RateIOPS
	// ON/OFF burst rates, scaled to preserve the mean rate.
	bursty := p.BurstFactor > 1 && p.BurstDuty > 0 && p.BurstDuty < 1 && p.BurstPeriod > 0
	onScale, offScale := 1.0, 1.0
	if bursty {
		onScale = p.BurstFactor
		offScale = (1 - p.BurstFactor*p.BurstDuty) / (1 - p.BurstDuty)
		if offScale <= 0 {
			return nil, GenStats{}, fmt.Errorf("workload %s: BurstFactor %v x BurstDuty %v >= 1",
				p.Name, p.BurstFactor, p.BurstDuty)
		}
	}
	var now float64
	reqs := make([]trace.Request, 0, p.Requests)
	for i := 0; i < p.Requests; i++ {
		// Exponential inter-arrival (open-loop offering), modulated by
		// the ON/OFF burst phase.
		gap := meanGapNS
		if bursty {
			if phase := now - float64(int64(now/p.BurstPeriod))*p.BurstPeriod; phase < p.BurstDuty*p.BurstPeriod {
				gap /= onScale
			} else {
				gap /= offScale
			}
		}
		now += gap * expovariate(rng)

		isRead := rng.Bool(p.ReadRatio)
		var flat int
		isHot := len(hot) > 0 && rng.Bool(p.HotIORatio)
		if isHot {
			flat = hot[rng.Intn(len(hot))].Flat(&g)
			stats.HotRequests++
		} else if len(cold) > 0 {
			flat = cold[rng.Intn(len(cold))]
		} else {
			flat = hot[rng.Intn(len(hot))].Flat(&g)
			stats.HotRequests++
		}

		cur := cursors[flat]
		if cur == nil {
			cur = &cursor{}
			cursors[flat] = cur
		}
		base := int64(flat) * pagesPerCluster.Int64()
		var off int64
		randomness := p.WriteRandomness
		if isRead {
			randomness = p.ReadRandomness
		}
		random := rng.Bool(randomness)
		if random {
			if zipf != nil {
				off = zipf.draw(rng)
			} else {
				off = rng.Int63n(footprint.Int64())
			}
		} else if isRead {
			off = cur.read % footprint.Int64()
			cur.read += pages.Int64()
		} else {
			off = cur.write % footprint.Int64()
			cur.write += pages.Int64()
		}
		if off+pages.Int64() > footprint.Int64() {
			off = footprint.Int64() - pages.Int64()
			if off < 0 {
				off = 0
			}
		}

		op := trace.Write
		if isRead {
			op = trace.Read
			stats.Reads++
			if random {
				stats.RandomReads++
			}
		} else {
			stats.Writes++
			if random {
				stats.RandomWrite++
			}
		}
		reqs = append(reqs, trace.Request{
			Arrival: simx.Time(now),
			Op:      op,
			LPN:     base + off,
			Pages:   pages,
		})
	}
	stats.Requests = len(reqs)
	return reqs, stats, nil
}

// expovariate draws a unit-mean exponential variate.
func expovariate(rng *simx.RNG) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u)
}

// zipfSampler draws page offsets with probability proportional to
// 1/(rank+1)^skew via inverse-CDF sampling over a precomputed table.
type zipfSampler struct {
	cdf []float64
}

func newZipfSampler(n int64, skew float64) *zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for i := int64(0); i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), skew)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfSampler{cdf: cdf}
}

func (z *zipfSampler) draw(rng *simx.RNG) int64 {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo)
}
