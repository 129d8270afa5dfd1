package fault

import (
	"fmt"
	"reflect"
	"testing"

	"triplea/internal/array"
	"triplea/internal/core"
	"triplea/internal/ftl"
	"triplea/internal/metrics"
	"triplea/internal/trace"
	"triplea/internal/units"
	"triplea/internal/workload"
)

// runOutcome is what a run shows the host and the flash bookkeeping:
// every request's record and failure, the FTL counters, and the
// array's GC, migration and read-retry counts.
type runOutcome struct {
	records     []metrics.Record
	failures    []metrics.Failure
	ftlStats    ftl.Stats
	gcRounds    uint64
	migrations  uint64
	readRetries uint64
}

// runShape runs reqs on a fresh array, with Triple-A attached when
// manager is set and an empty fault plan attached when opt is non-nil.
func runShape(t *testing.T, cfg array.Config, reqs []trace.Request, manager bool, opt *Options) runOutcome {
	t.Helper()
	a, err := array.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if manager {
		core.Attach(a, core.DefaultOptions())
	}
	if opt != nil {
		Attach(a, Plan{}, *opt)
	}
	if err := a.Prepare(reqs); err != nil {
		t.Fatal(err)
	}
	rec, err := a.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return runOutcome{
		records:     rec.Records(),
		failures:    rec.Failures(),
		ftlStats:    a.FTL().Stats(),
		gcRounds:    a.GCRounds(),
		migrations:  a.Migrations(),
		readRetries: a.ReadRetries(),
	}
}

// TestEmptyPlanChangesNothing is a metamorphic oracle: a run with an
// empty fault plan attached, recovery off or on, must be identical to
// the run with no injector. Attach still arms the array's fault paths
// and, with recovery on, gives the FTL the health registry, so a fault
// branch that fires on healthy hardware fails here. The two shapes are
// the repository benchmark's gc-overwrite array (GC on every FIMM) and
// fault-recovery array (Triple-A migrating), at seed 42.
func TestEmptyPlanChangesNothing(t *testing.T) {
	gc := gcOverwriteConfig()
	gcLoad := workload.MicroWrite(0, 20_000, 40_000)
	gcLoad.ReadRatio = 0.5
	gcLoad.Footprint = 2048 * units.Page

	mixed := array.DefaultConfig()
	mixed.Geometry.Switches = 2
	mixed.Geometry.ClustersPerSwitch = 4
	mixedLoad := workload.MicroRead(2, 20_000, 0)
	mixedLoad.RateIOPS = 40_000 * 2 / mixedLoad.HotIORatio
	mixedLoad.ReadRatio = 0.6
	mixedLoad.WriteRandomness = 1

	shapes := []struct {
		name    string
		cfg     array.Config
		load    workload.Profile
		manager bool
		// exercised checks that the plain run reaches the code the
		// shape is there for, so a smaller request count cannot make
		// the row vacuous.
		exercised func(runOutcome) bool
	}{
		{name: "gc-overwrite", cfg: gc, load: gcLoad,
			exercised: func(o runOutcome) bool { return o.gcRounds > 0 && o.ftlStats.GCWrites > 0 }},
		{name: "fault-recovery", cfg: mixed, load: mixedLoad, manager: true,
			exercised: func(o runOutcome) bool { return o.migrations > 0 }},
	}
	for _, sh := range shapes {
		sh.cfg.Metrics = metrics.Exact
		reqs, _, err := workload.Generate(sh.cfg.Geometry, sh.load, 42)
		if err != nil {
			t.Fatal(err)
		}
		want := runShape(t, sh.cfg, reqs, sh.manager, nil)
		if !sh.exercised(want) {
			t.Fatalf("%s: plain run too light: GC rounds %d, GC writes %d, migrations %d",
				sh.name, want.gcRounds, want.ftlStats.GCWrites, want.migrations)
		}
		for _, recover := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/recover=%v", sh.name, recover), func(t *testing.T) {
				got := runShape(t, sh.cfg, reqs, sh.manager, &Options{Recover: recover})
				if reflect.DeepEqual(got, want) {
					return
				}
				for i := range min(len(got.records), len(want.records)) {
					if got.records[i] != want.records[i] {
						t.Errorf("record %d: %+v, without a plan %+v", i, got.records[i], want.records[i])
						break
					}
				}
				t.Errorf("with an empty plan: %d records, %d failures, FTL %+v, GC rounds %d, migrations %d, read retries %d",
					len(got.records), len(got.failures), got.ftlStats, got.gcRounds, got.migrations, got.readRetries)
				t.Errorf("without a plan:     %d records, %d failures, FTL %+v, GC rounds %d, migrations %d, read retries %d",
					len(want.records), len(want.failures), want.ftlStats, want.gcRounds, want.migrations, want.readRetries)
			})
		}
	}
}
