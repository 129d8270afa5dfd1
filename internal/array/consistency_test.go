package array

import (
	"testing"
	"testing/quick"

	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
)

func TestConsistencyAfterMixedRun(t *testing.T) {
	a, _ := New(testConfig())
	var reqs []trace.Request
	rng := simx.NewRNG(11)
	var now simx.Time
	for i := 0; i < 300; i++ {
		now += simx.Time(20+rng.Intn(50)) * simx.Microsecond
		op := trace.Read
		if rng.Bool(0.4) {
			op = trace.Write
		}
		reqs = append(reqs, trace.Request{Arrival: now, Op: op, LPN: rng.Int63n(64), Pages: 1})
	}
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyAfterGC(t *testing.T) {
	cfg := gcConfig()
	a, _ := New(cfg)
	reqs := overwriteTrace(20, 4, simx.Millisecond)
	if _, err := a.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if a.GCRounds() == 0 {
		t.Log("note: GC did not trigger in this run")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyAfterMigrations(t *testing.T) {
	a, _ := New(testConfig())
	for lpn := int64(0); lpn < 16; lpn++ {
		if _, err := a.ensureMapped(lpn); err != nil {
			t.Fatal(err)
		}
	}
	for lpn := int64(0); lpn < 16; lpn++ {
		dst := topo.FIMMID{
			ClusterID: topo.ClusterID{Switch: int(lpn) % 2, Cluster: int(lpn) % 2},
			FIMM:      int(lpn) % 2,
		}
		a.MigratePage(lpn, dst, lpn%2 == 0, migratedFunc(func(err error) {
			if err != nil {
				t.Errorf("migrate %d: %v", lpn, err)
			}
		}))
	}
	a.Engine().Run()
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// Property: any random interleaving of reads, writes and migrations
// leaves the array consistent and fully drained.
func TestPropertyConsistencyUnderChaos(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		cfg := testConfig()
		a, err := New(cfg)
		if err != nil {
			return false
		}
		rng := simx.NewRNG(seed)
		const span = 48 // LPNs spanning several FIMMs
		for _, op := range ops {
			lpn := int64(op % span)
			switch (op / span) % 4 {
			case 0:
				a.Submit(trace.Request{Op: trace.Read, LPN: lpn, Pages: 1})
			case 1:
				a.Submit(trace.Request{Op: trace.Write, LPN: lpn, Pages: 1})
			case 2:
				dst := topo.FIMMFromFlat(cfg.Geometry, rng.Intn(cfg.Geometry.TotalFIMMs()))
				a.MigratePage(lpn, dst, rng.Bool(0.5), migratedFunc(func(error) {}))
			case 3:
				a.Engine().RunFor(simx.Time(rng.Intn(200)) * simx.Microsecond)
			}
		}
		a.Engine().Run()
		return a.InFlight() == 0 && a.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
