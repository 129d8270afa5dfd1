package decision

import (
	"math"
	"testing"

	"triplea/internal/simx"
)

func TestEnumRoundTrip(t *testing.T) {
	for f := Family(0); f < Family(NumFamilies); f++ {
		got, err := ParseFamily(f.String())
		if err != nil || got != f {
			t.Errorf("family %d round-trip: got %v, %v", f, got, err)
		}
	}
	reasons := []ExcludeReason{Eligible, ExcludedDegraded, ExcludedWarm,
		ExcludedLaggard, ExcludedVetoed, ExcludedRetired}
	for _, r := range reasons {
		got, err := ParseExcludeReason(r.String())
		if err != nil || got != r {
			t.Errorf("reason %d round-trip: got %v, %v", r, got, err)
		}
	}
}

// lastRecord reads the most recent committed record.
func lastRecord(t *testing.T, r *Recorder) TraceRecord {
	t.Helper()
	tr := r.Trace()
	if len(tr.Records) == 0 {
		t.Fatal("no records committed")
	}
	return tr.Records[len(tr.Records)-1]
}

func TestRegretZeroIffChosenIsArgmax(t *testing.T) {
	r := NewRecorder(4)

	// Chosen ties the argmax: regret must be exactly zero.
	r.Begin(Migration, 0, 10)
	r.Candidate(1, -0.5, Eligible)
	r.Candidate(2, -0.2, Eligible)
	r.Candidate(3, -0.9, ExcludedDegraded)
	r.Commit(2, -0.2, 2)
	if got := lastRecord(t, r).Regret; got != 0 {
		t.Errorf("argmax chosen: regret = %v, want 0", got)
	}

	// Chosen is strictly worse than the best candidate (an excluded
	// one): regret is the exact positive gap.
	r.Begin(Migration, 0, 20)
	r.Candidate(1, -0.5, Eligible)
	r.Candidate(2, -0.1, ExcludedDegraded)
	r.Commit(1, -0.5, 1)
	rec := lastRecord(t, r)
	if want := 0.4; math.Abs(rec.Regret-want) > 1e-12 {
		t.Errorf("excluded-better: regret = %v, want %v", rec.Regret, want)
	}
	if rec.Regret < 0 {
		t.Errorf("regret negative: %v", rec.Regret)
	}

	// Chosen better than every scored candidate (possible when the
	// chosen score is computed outside the candidate loop): clamps to 0.
	r.Begin(GCVictim, 1, 30)
	r.Candidate(7, -5, Eligible)
	r.Commit(9, -1, 1)
	if got := lastRecord(t, r).Regret; got != 0 {
		t.Errorf("chosen-above-best: regret = %v, want 0", got)
	}
}

func TestAlternativesSortedAndBounded(t *testing.T) {
	r := NewRecorder(4)
	r.Begin(Reshape, 2, 5)
	// 12 candidates, interleaved scores with ties; only the top 8 by
	// (score desc, ID asc) survive, but all 12 shape the baseline.
	scores := []float64{-3, -1, -4, -1, -5, -9, -2, -6, -8, -7, -0.5, -1}
	for i, s := range scores {
		r.Candidate(int64(i), s, Eligible)
	}
	r.Commit(10, -0.5, 2)
	rec := lastRecord(t, r)
	if rec.Candidates != len(scores) {
		t.Errorf("candidates = %d, want %d", rec.Candidates, len(scores))
	}
	if len(rec.Alternatives) != MaxAlternatives {
		t.Fatalf("alternatives = %d, want %d", len(rec.Alternatives), MaxAlternatives)
	}
	for i := 1; i < len(rec.Alternatives); i++ {
		a, b := rec.Alternatives[i-1], rec.Alternatives[i]
		if a.Score < b.Score || (a.Score == b.Score && a.ID >= b.ID) {
			t.Errorf("alternatives not sorted at %d: %+v then %+v", i, a, b)
		}
	}
	// Ties on score -1 (IDs 1, 3, 11) must appear in ascending ID order.
	var tieIDs []int64
	for _, a := range rec.Alternatives {
		if a.Score == -1 {
			tieIDs = append(tieIDs, a.ID)
		}
	}
	if len(tieIDs) != 3 || tieIDs[0] != 1 || tieIDs[1] != 3 || tieIDs[2] != 11 {
		t.Errorf("tie order = %v, want [1 3 11]", tieIDs)
	}
	if rec.Regret != 0 {
		t.Errorf("regret = %v, want 0 (chosen ties best)", rec.Regret)
	}
}

func TestCancelAndBeginReset(t *testing.T) {
	r := NewRecorder(4)
	r.Begin(Evacuation, 0, 1)
	r.Candidate(1, 1, Eligible)
	r.Cancel()
	if r.Decisions() != 0 || r.Len() != 0 {
		t.Errorf("cancelled decision was counted: %d/%d", r.Decisions(), r.Len())
	}
	// Candidate/Commit outside an open decision are no-ops.
	r.Candidate(2, 2, Eligible)
	r.Commit(2, 2, 0)
	if r.Decisions() != 0 {
		t.Errorf("commit without begin was counted")
	}
	// Begin resets state even after an unbalanced sequence.
	r.Begin(Restore, 1, 2)
	r.Commit(5, 0, 1)
	rec := lastRecord(t, r)
	if rec.Candidates != 0 || len(rec.Alternatives) != 0 || rec.Regret != 0 {
		t.Errorf("stale builder state leaked: %+v", rec)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Begin(Migration, 0, 0)
	r.Candidate(1, 1, Eligible)
	r.Commit(1, 1, 0)
	r.Cancel()
	if r.Decisions() != 0 || r.Len() != 0 {
		t.Error("nil recorder reported decisions")
	}
	s := r.Summary()
	if s.Decisions != 0 || s.Families != nil {
		t.Errorf("nil recorder summary not zero: %+v", s)
	}
	tr := r.Trace()
	if tr.Records != nil {
		t.Errorf("nil recorder trace has records")
	}
}

func TestRingWrapKeepsMostRecent(t *testing.T) {
	r := NewRecorder(2)
	total := DefaultRingSize + 10
	for i := 0; i < total; i++ {
		r.Begin(GCVictim, 0, simx.Time(i))
		r.Candidate(int64(i), 0, Eligible)
		r.Commit(int64(i), 0, 0)
	}
	if r.Decisions() != uint64(total) {
		t.Fatalf("decisions = %d, want %d", r.Decisions(), total)
	}
	if r.Len() != DefaultRingSize {
		t.Fatalf("ring len = %d, want %d", r.Len(), DefaultRingSize)
	}
	tr := r.Trace()
	if got := tr.Records[0].Seq; got != uint64(total-DefaultRingSize) {
		t.Errorf("oldest retained seq = %d, want %d", got, total-DefaultRingSize)
	}
	if got := tr.Records[len(tr.Records)-1].Seq; got != uint64(total-1) {
		t.Errorf("newest retained seq = %d, want %d", got, total-1)
	}
	for i := 1; i < len(tr.Records); i++ {
		if tr.Records[i].Seq != tr.Records[i-1].Seq+1 {
			t.Fatalf("records not in seq order at %d", i)
		}
	}
}

func TestSummaryAggregates(t *testing.T) {
	r := NewRecorder(3)
	r.Begin(Migration, 0, 1)
	r.Candidate(1, -0.2, Eligible)
	r.Candidate(2, -0.6, Eligible)
	r.Commit(1, -0.2, 1)
	r.Begin(Migration, 0, 2)
	r.Candidate(1, -0.1, ExcludedDegraded)
	r.Candidate(2, -0.3, Eligible)
	r.Commit(2, -0.3, 2)
	r.Begin(GCVictim, 1, 3)
	r.Candidate(10, -4, Eligible)
	r.Commit(10, -4, 1)

	s := r.Summary()
	if s.Decisions != 3 {
		t.Fatalf("decisions = %d, want 3", s.Decisions)
	}
	if len(s.Families) != 2 {
		t.Fatalf("families = %d, want 2 (zero-count families omitted)", len(s.Families))
	}
	mig := s.Families[0]
	if mig.Family != Migration || mig.Count != 2 {
		t.Fatalf("first family %+v, want migration count 2", mig)
	}
	if want := 0.1; math.Abs(mig.RegretMean-want) > 1e-9 {
		t.Errorf("migration regret mean = %v, want %v", mig.RegretMean, want)
	}
	if want := 0.2; math.Abs(mig.RegretMax-want) > 1e-9 {
		t.Errorf("migration regret max = %v, want %v", mig.RegretMax, want)
	}
	if len(s.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(s.Clusters))
	}
	if s.Clusters[0].Cluster != 1 || s.Clusters[0].Count != 2 {
		t.Errorf("cluster 1 distribution wrong: %+v", s.Clusters[0])
	}
	if len(s.TopRegret) != 3 {
		t.Fatalf("top regret = %d, want 3", len(s.TopRegret))
	}
	if s.TopRegret[0].Regret < s.TopRegret[1].Regret {
		t.Errorf("top regret not sorted: %+v", s.TopRegret)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRecorder(2)
	r.Begin(WriteRedirect, 1, 7)
	r.Candidate(3, -1, ExcludedLaggard)
	r.Candidate(4, 0, Eligible)
	r.Commit(4, 0, 1)
	ts := TraceSet{Seed: 42, Scenarios: []NamedTrace{{Name: "t", Trace: r.Trace()}}}
	b1, err := EncodeJSON(ts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTraceSet(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeJSON(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("encode/decode/encode not byte-stable:\n%s\nvs\n%s", b1, b2)
	}
	rec := got.Scenarios[0].Trace.Records[0]
	if rec.Family != WriteRedirect || rec.Alternatives[1].Reason != ExcludedLaggard {
		t.Errorf("enums did not survive round-trip: %+v", rec)
	}
}

// TestRecordingHooksDoNotAllocate pins the Ring backend's hot-path
// contract: Begin/Candidate/Commit/Cancel never allocate once the
// recorder exists.
func TestRecordingHooksDoNotAllocate(t *testing.T) {
	r := NewRecorder(8)
	n := testing.AllocsPerRun(200, func() {
		r.Begin(Migration, 0, 1)
		for i := 0; i < 12; i++ {
			r.Candidate(int64(i), -float64(i), Eligible)
		}
		r.Commit(0, 0, 0)
		r.Begin(GCVictim, 1, 2)
		r.Cancel()
	})
	if n != 0 {
		t.Errorf("recording hooks allocate %v per run, want 0", n)
	}
}
