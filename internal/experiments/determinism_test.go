package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/fault"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/workload"
)

// serializeRun executes one read and one write micro-workload end to
// end (baseline and Triple-A, so FTL, GC, migration, and reshaping
// paths all run) and renders every per-request record plus the summary
// counters to text. Any nondeterminism anywhere in the stack — map
// iteration reaching the event queue, an unseeded random draw, wall
// clock leaking into a latency — shows up as a byte difference.
func serializeRun(t *testing.T, seed uint64) string {
	t.Helper()
	var b strings.Builder
	for _, p := range []workload.Profile{
		workload.MicroRead(2, 2000, 240_000),
		workload.MicroWrite(2, 2000, 120_000),
	} {
		s := NewSuite()
		s.Seed = seed
		r, err := s.RunProfile(p)
		if err != nil {
			t.Fatalf("seed %d, %s: %v", seed, p.Name, err)
		}
		for _, rec := range r.Base.Records() {
			fmt.Fprintf(&b, "base %+v\n", rec)
		}
		for _, rec := range r.Auto.Records() {
			fmt.Fprintf(&b, "auto %+v\n", rec)
		}
		fmt.Fprintf(&b, "summary gc=%d/%d moved=%d erases=%d/%d mgr=%+v ftl=%+v/%+v\n",
			r.BaseGC, r.AutoGC, r.AutoMoved, r.BaseErases, r.AutoErases,
			r.Manager, r.BaseFTL, r.AutoFTL)
	}
	return b.String()
}

// TestDeterministicReplay is the repository's reproducibility contract:
// the same seed must yield a byte-identical run, and a different seed
// must not. A wall clock, a global random draw or a map order reaching
// the run fails it (docs/static-analysis.md, "Run-time gates").
func TestDeterministicReplay(t *testing.T) {
	first := serializeRun(t, 42)
	second := serializeRun(t, 42)
	if first != second {
		a, b := strings.Split(first, "\n"), strings.Split(second, "\n")
		for i := range a {
			if i >= len(b) {
				t.Fatalf("same seed diverged: second run ended at line %d", i+1)
			}
			if a[i] != b[i] {
				t.Fatalf("same seed diverged at line %d:\n  run1: %s\n  run2: %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("same seed produced different output lengths: %d vs %d bytes", len(first), len(second))
	}
	other := serializeRun(t, 43)
	if first == other {
		t.Fatal("different seeds produced byte-identical runs; the seed is not reaching the workload")
	}
}

// serializeFaultedRun executes a mixed workload under the reference
// fault plan (one FIMM death, one cluster hot-unplug/replug) with
// degraded-mode recovery on, and renders every completion, every
// failure, and all fault/recovery counters to text. The determinism
// contract extends to faulted runs: fault delivery, mapping drops,
// write redirection and the evacuation pump must all replay
// byte-identically from the same seed.
func serializeFaultedRun(t *testing.T, seed uint64) string {
	t.Helper()
	s := NewSuite()
	s.Seed = seed
	p := workload.MicroRead(2, 2000, 240_000)
	p.ReadRatio = 0.6
	p.WriteRandomness = 1
	reqs, _, err := workload.Generate(s.Config.Geometry, p, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	span := reqs[len(reqs)-1].Arrival
	plan := fault.ReferencePlan(s.Config.Geometry, span)
	plan.Seed = seed

	var b strings.Builder
	for _, autonomic := range []bool{false, true} {
		a, err := array.New(s.Config)
		if err != nil {
			t.Fatal(err)
		}
		if autonomic {
			core.Attach(a, s.Options)
		}
		inj := fault.Attach(a, plan, fault.Options{Recover: autonomic})
		rec, err := a.Run(reqs)
		if err != nil {
			t.Fatalf("seed %d, autonomic=%v: %v", seed, autonomic, err)
		}
		if a.InFlight() != 0 {
			t.Fatalf("seed %d, autonomic=%v: %d requests stuck", seed, autonomic, a.InFlight())
		}
		for _, r := range rec.Records() {
			fmt.Fprintf(&b, "done %+v\n", r)
		}
		for _, f := range rec.Failures() {
			fmt.Fprintf(&b, "fail %+v\n", f)
		}
		fmt.Fprintf(&b, "faults auto=%v arr=%+v inj=%+v ftl=%+v lost=%d\n",
			autonomic, a.FaultStats(), inj.Stats(), a.FTL().Stats(), a.FTL().LostPages())
	}
	return b.String()
}

// Golden digest of serializeRun(seed=42), captured on the closure-based
// event path immediately before the typed-pooled-event refactor. The
// refactor's contract is stronger than "same seed ⇒ same bytes within a
// build": recycling event nodes, packets, and commands must not perturb
// event ordering at all, so the refactored simulator must still emit
// these exact bytes.
const (
	goldenSeed      = 42
	goldenSHA256    = "d74880c7048edabdff9768b4d4be0a14c877490dd2aa533740a05457e492726d"
	goldenOutputLen = 1811629
)

// TestGoldenReplay diffs a run against the pre-refactor golden digest.
// If a change legitimately alters simulated timing (a new model, a
// parameter change), re-capture the constants above in the same commit
// and say so in the commit message; if this fails on a "pure
// refactor", the refactor reordered events and must be fixed instead.
func TestGoldenReplay(t *testing.T) {
	// Under -tags simcheck, every Array.Run inside serializeRun asserts
	// the per-pool leak ledger drained; this snapshot extends the same
	// check across the whole replay, so a pooled object leaked anywhere
	// in the seed-42 run fails here with its pool's name.
	drainSnap := simx.SnapshotLedger()
	out := serializeRun(t, goldenSeed)
	sum := sha256.Sum256([]byte(out))
	got := hex.EncodeToString(sum[:])
	if len(out) != goldenOutputLen || got != goldenSHA256 {
		t.Fatalf("run diverged from pre-refactor golden bytes:\n  got  sha256=%s len=%d\n  want sha256=%s len=%d",
			got, len(out), goldenSHA256, goldenOutputLen)
	}
	if err := simx.AssertDrained(drainSnap); err != nil {
		t.Fatalf("seed-%d golden run leaked pooled objects: %v", goldenSeed, err)
	}
}

// Golden digest of serializeFaultedRun(seed=42): the degraded-array
// acceptance scenario, pinned the same way as the unfaulted golden
// replay. Re-capture in the same commit if a change legitimately moves
// simulated timing; a divergence on a pure refactor is a reordering
// bug on the fault paths.
const (
	faultedGoldenSHA256    = "322915e117385606141ef7a0efb910082c3f5f7971b92abfafabe4ed5e813b59"
	faultedGoldenOutputLen = 910294
)

// TestFaultedGoldenReplay is the faulted half of the reproducibility
// contract: seed 42 plus the reference fault plan must yield these
// exact bytes, twice, with every pool drained.
func TestFaultedGoldenReplay(t *testing.T) {
	drainSnap := simx.SnapshotLedger()
	first := serializeFaultedRun(t, goldenSeed)
	second := serializeFaultedRun(t, goldenSeed)
	if first != second {
		t.Fatal("same seed produced different faulted runs")
	}
	if err := simx.AssertDrained(drainSnap); err != nil {
		t.Fatalf("faulted golden run leaked pooled objects: %v", err)
	}
	sum := sha256.Sum256([]byte(first))
	got := hex.EncodeToString(sum[:])
	if len(first) != faultedGoldenOutputLen || got != faultedGoldenSHA256 {
		t.Fatalf("faulted run diverged from golden bytes:\n  got  sha256=%s len=%d\n  want sha256=%s len=%d",
			got, len(first), faultedGoldenSHA256, faultedGoldenOutputLen)
	}
}

// serializeRetrainDeferralRun covers the two event paths the goldens
// above never reach: opportunistic GC deferring its rounds while the
// cluster's shared bus is busy, and a scripted PCI-E link degrade plus
// link retrain on that same cluster. A small one-switch array with tiny
// blocks takes a seeded mix of hot-set overwrites and dense reads, all
// on cluster 0, so collection comes under pressure while the bus is
// saturated and the retrain window stalls live traffic. It renders
// every completion, every failure and the GC/fault counters to text,
// and also returns the deferral count and the delivered fault kinds so
// the caller can prove both paths ran.
func serializeRetrainDeferralRun(t *testing.T, seed uint64) (string, uint64, []fault.Kind) {
	t.Helper()
	cfg := array.DefaultConfig()
	g := &cfg.Geometry
	g.Switches, g.ClustersPerSwitch, g.FIMMsPerCluster, g.PackagesPerFIMM = 1, 2, 2, 2
	g.Nand.DiesPerPackage = 1
	g.Nand.BlocksPerPlane = 8
	g.Nand.PagesPerBlock = 4
	cfg.GCThreshold = 4
	cfg.OpportunisticGC = true

	rng := simx.NewRNG(seed)
	perFIMM := g.PagesPerFIMM().Int64()
	var reqs []trace.Request
	var now simx.Time
	for w := 0; w < 80; w++ {
		reqs = append(reqs, trace.Request{Arrival: now, Op: trace.Write, LPN: int64(rng.Intn(4)), Pages: 1})
		for j := 0; j < 48; j++ {
			// Alternate the cluster's two FIMMs: die time overlaps,
			// bus transfers serialise.
			lpn := 10 + int64(rng.Intn(20)) + int64(j%2)*perFIMM
			reqs = append(reqs, trace.Request{
				Arrival: now + simx.Time(j+1)*10*simx.Microsecond,
				Op:      trace.Read, LPN: lpn, Pages: 1,
			})
		}
		now += simx.Millisecond / 2
	}

	target := topo.ClusterID{}
	plan := fault.Plan{Events: []fault.Event{
		{At: now / 4, Kind: fault.KindLinkDegrade, Cluster: target, Factor: 2},
		{At: now / 2, Kind: fault.KindLinkRetrain, Cluster: target, Duration: 80 * simx.Microsecond},
		{At: 3 * now / 4, Kind: fault.KindLinkRetrain, Cluster: target, Duration: 40 * simx.Microsecond},
	}}

	a, err := array.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.Attach(a, plan, fault.Options{})
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if a.InFlight() != 0 {
		t.Fatalf("seed %d: %d requests stuck", seed, a.InFlight())
	}
	var b strings.Builder
	for _, r := range rec.Records() {
		fmt.Fprintf(&b, "done %+v\n", r)
	}
	for _, f := range rec.Failures() {
		fmt.Fprintf(&b, "fail %+v\n", f)
	}
	fmt.Fprintf(&b, "gc rounds=%d deferrals=%d inj=%+v ftl=%+v\n",
		a.GCRounds(), a.GCDeferrals(), inj.Stats(), a.FTL().Stats())
	var kinds []fault.Kind
	for _, ev := range inj.Events()[:inj.Stats().Injected] {
		kinds = append(kinds, ev.Kind)
	}
	return b.String(), a.GCDeferrals(), kinds
}

// Golden digest of serializeRetrainDeferralRun(seed=42), captured on the
// closure-based scheduling path (Link.Retrain holding the wire through a
// closure grant, the GC deferral timer and the fault injector's
// deliveries as closure events, the GC erase through the endpoint's
// closure Erase) immediately before those callers moved to typed
// receivers. The typed versions must emit these exact bytes.
const (
	retrainDeferralGoldenSHA256    = "36f257c533d05863364b2076c7d3a9931cf921b1d24b2c2989e91a18f6f139b4"
	retrainDeferralGoldenOutputLen = 973478
)

// TestRetrainDeferralGoldenReplay pins the GC-deferral and link-retrain
// paths byte for byte, with every pool drained, and proves the scenario
// still exercises both: at least one deferral, and the retrain (and
// degrade) delivered.
func TestRetrainDeferralGoldenReplay(t *testing.T) {
	drainSnap := simx.SnapshotLedger()
	out, deferrals, kinds := serializeRetrainDeferralRun(t, goldenSeed)
	if err := simx.AssertDrained(drainSnap); err != nil {
		t.Fatalf("retrain/deferral golden run leaked pooled objects: %v", err)
	}
	if deferrals == 0 {
		t.Error("opportunistic GC never deferred; the scenario no longer covers the deferral timer")
	}
	delivered := map[fault.Kind]int{}
	for _, k := range kinds {
		delivered[k]++
	}
	if delivered[fault.KindLinkRetrain] != 2 || delivered[fault.KindLinkDegrade] != 1 {
		t.Errorf("delivered fault kinds %v, want two link retrains and one link degrade", kinds)
	}
	sum := sha256.Sum256([]byte(out))
	got := hex.EncodeToString(sum[:])
	if len(out) != retrainDeferralGoldenOutputLen || got != retrainDeferralGoldenSHA256 {
		t.Fatalf("retrain/deferral run diverged from golden bytes:\n  got  sha256=%s len=%d\n  want sha256=%s len=%d",
			got, len(out), retrainDeferralGoldenSHA256, retrainDeferralGoldenOutputLen)
	}
}
