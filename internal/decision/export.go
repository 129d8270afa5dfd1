package decision

// export.go is the cold read-out side of the recorder: streaming
// summaries, full trace export, and deterministic JSON encoding.
// Nothing here runs on the simulation hot path.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"triplea/internal/simx"
)

// Exemplar is one of the highest-regret decisions of a run, retained
// in the streaming summary.
type Exemplar struct {
	Seq     uint64    `json:"seq"`
	At      simx.Time `json:"at"`
	Family  Family    `json:"family"`
	Cluster int       `json:"cluster"`
	Chosen  int64     `json:"chosen"`
	Regret  float64   `json:"regret"`
}

// FamilySummary is the streaming aggregate for one decision family.
// Regret quantiles come from the micro-unit histogram, so they carry
// its bucket resolution; mean and max are exact.
type FamilySummary struct {
	Family     Family  `json:"family"`
	Count      uint64  `json:"count"`
	RegretMean float64 `json:"regret_mean"`
	RegretMax  float64 `json:"regret_max"`
	RegretP50  float64 `json:"regret_p50"`
	RegretP95  float64 `json:"regret_p95"`
	RegretP99  float64 `json:"regret_p99"`
}

// ClusterCount is one entry of the per-cluster choice distribution:
// how many committed decisions landed on this flat cluster.
type ClusterCount struct {
	Cluster int    `json:"cluster"`
	Count   uint64 `json:"count"`
}

// Summary is the bounded-size aggregate view of a run's decisions. It
// is a plain value (fresh slices, no recorder pointers): it stays valid
// after the recorder and its run are gone.
type Summary struct {
	Decisions uint64          `json:"decisions"`
	Families  []FamilySummary `json:"families,omitempty"`
	TopRegret []Exemplar      `json:"top_regret,omitempty"`
	Clusters  []ClusterCount  `json:"clusters,omitempty"`
}

// Summary materializes the streaming aggregates. Families and clusters
// with zero decisions are omitted; the rest appear in index order, so
// the output is deterministic. Safe on a nil (Off) recorder, which
// yields the zero Summary.
func (r *Recorder) Summary() Summary {
	var s Summary
	if r == nil {
		return s
	}
	s.Decisions = r.seq
	for f := 0; f < NumFamilies; f++ {
		agg := &r.families[f]
		if agg.count == 0 {
			continue
		}
		s.Families = append(s.Families, FamilySummary{
			Family:     Family(f),
			Count:      agg.count,
			RegretMean: agg.regretSum / float64(agg.count),
			RegretMax:  agg.regretMax,
			RegretP50:  float64(agg.hist.Quantile(50)) / 1e6,
			RegretP95:  float64(agg.hist.Quantile(95)) / 1e6,
			RegretP99:  float64(agg.hist.Quantile(99)) / 1e6,
		})
	}
	if r.nTop > 0 {
		s.TopRegret = append([]Exemplar(nil), r.top[:r.nTop]...)
	}
	for c, n := range r.clusterChoice {
		if n > 0 {
			s.Clusters = append(s.Clusters, ClusterCount{Cluster: c, Count: n})
		}
	}
	return s
}

// TraceRecord is the export form of one Record, with the top-K
// alternatives as a slice sized to what was actually kept.
type TraceRecord struct {
	Seq          uint64        `json:"seq"`
	At           simx.Time     `json:"at"`
	Family       Family        `json:"family"`
	Cluster      int           `json:"cluster"`
	Chosen       int64         `json:"chosen"`
	Score        float64       `json:"score"`
	Regret       float64       `json:"regret"`
	Dest         int           `json:"dest"`
	Candidates   int           `json:"candidates"`
	Alternatives []Alternative `json:"alternatives,omitempty"`
}

// Trace is the full read-out of one run: the streaming summary plus
// the ring's retained records, oldest first.
type Trace struct {
	Summary Summary       `json:"summary"`
	Records []TraceRecord `json:"records,omitempty"`
}

// Trace exports the summary and the retained records (oldest first,
// handling ring wrap). Safe on a nil recorder.
func (r *Recorder) Trace() Trace {
	var t Trace
	if r == nil {
		return t
	}
	t.Summary = r.Summary()
	size := uint64(len(r.ring))
	count := r.seq
	start := uint64(0)
	if count > size {
		start = count - size
		count = size
	}
	for i := uint64(0); i < count; i++ {
		rec := &r.ring[(start+i)%size]
		tr := TraceRecord{
			Seq:        rec.Seq,
			At:         rec.At,
			Family:     rec.Family,
			Cluster:    rec.Cluster,
			Chosen:     rec.Chosen,
			Score:      rec.Score,
			Regret:     rec.Regret,
			Dest:       rec.Dest,
			Candidates: rec.NCand,
		}
		if rec.NAlts > 0 {
			tr.Alternatives = append([]Alternative(nil), rec.Alts[:rec.NAlts]...)
		}
		t.Records = append(t.Records, tr)
	}
	return t
}

// NamedTrace pairs a scenario name with its trace inside a TraceSet.
type NamedTrace struct {
	Name  string `json:"name"`
	Trace Trace  `json:"trace"`
}

// TraceSet is the on-disk decision-trace artifact: the seed that
// produced it plus one trace per recorded scenario.
type TraceSet struct {
	Seed      uint64       `json:"seed"`
	Scenarios []NamedTrace `json:"scenarios"`
}

// EncodeJSON renders a TraceSet as indented JSON with a trailing
// newline. Struct-driven encoding (no maps) keeps the bytes
// deterministic for the same input, which the seed-42 golden pins.
func EncodeJSON(ts TraceSet) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ts); err != nil {
		return nil, fmt.Errorf("decision: encode trace set: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeTraceSet parses bytes produced by EncodeJSON.
func DecodeTraceSet(b []byte) (TraceSet, error) {
	var ts TraceSet
	if err := json.Unmarshal(b, &ts); err != nil {
		return TraceSet{}, fmt.Errorf("decision: decode trace set: %w", err)
	}
	return ts, nil
}
