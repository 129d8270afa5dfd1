package fault

import (
	"math"
	"strings"
	"testing"

	"triplea/internal/array"
	"triplea/internal/simx"
	"triplea/internal/topo"
)

// TestPlanValidate has one row per rule Plan.Validate enforces, each a
// one-event plan on testConfig's 2x2 array of 2-FIMM clusters; want is
// a fragment of the error, or empty for a plan the array can take.
func TestPlanValidate(t *testing.T) {
	at := 10 * simx.Microsecond
	cl := topo.ClusterID{Switch: 1, Cluster: 1}
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"valid retrain", Event{At: at, Kind: KindLinkRetrain, Cluster: cl, Duration: simx.Microsecond}, ""},
		{"valid die failure", Event{At: at, Kind: KindDieReadFail, Cluster: cl, Block: topo.PackPPN(1, 1, 1, 1, 0, 63, 0)}, ""},
		{"negative time", Event{At: -1, Kind: KindClusterUnplug, Cluster: cl}, "negative time"},
		{"negative duration", Event{At: at, Kind: KindLinkRetrain, Cluster: cl, Duration: -simx.Microsecond}, "negative duration"},
		{"duration past the time range", Event{At: at, Kind: KindLinkRetrain, Cluster: cl, Duration: math.MaxInt64 - 1}, "ends past the range"},
		{"NaN factor", Event{At: at, Kind: KindFIMMStall, Cluster: cl, Factor: math.NaN()}, "not a finite"},
		{"infinite factor", Event{At: at, Kind: KindLinkDegrade, Cluster: cl, Factor: math.Inf(1)}, "not a finite"},
		{"negative factor", Event{At: at, Kind: KindChannelDegrade, Cluster: cl, Factor: -2}, "not a finite"},
		{"cell time overflow", Event{At: at, Kind: KindFIMMStall, Cluster: cl, Factor: 1e15}, "cell timing past the range"},
		{"channel transfer overflow", Event{At: at, Kind: KindChannelDegrade, Cluster: cl, Factor: 1e18}, "channel transfer past the range"},
		{"link transfer overflow", Event{At: at, Kind: KindLinkDegrade, Cluster: cl, Factor: 1e18}, "link transfer past the range"},
		{"unknown kind", Event{At: at, Kind: KindClusterReplug + 1, Cluster: cl}, "unknown kind"},
		{"cluster outside", Event{At: at, Kind: KindClusterUnplug, Cluster: topo.ClusterID{Switch: 2}}, "outside the 2x2 array"},
		{"FIMM outside", Event{At: at, Kind: KindFIMMDeath, Cluster: cl, FIMM: 2}, "FIMM 2 outside"},
		{"block outside", Event{At: at, Kind: KindBlockReadFail, Cluster: cl, Block: topo.PackPPN(1, 1, 0, 2, 0, 0, 0)}, "block"},
		{"block on another cluster", Event{At: at, Kind: KindBlockWearOut, Cluster: cl, Block: topo.PackPPN(0, 0, 0, 0, 0, 0, 0)}, "block"},
		{"block with a page", Event{At: at, Kind: KindBlockReadFail, Cluster: cl, Block: topo.PackPPN(1, 1, 0, 0, 0, 3, 300)}, "not page 0"},
	}
	cfg := testConfig()
	for _, tc := range cases {
		err := Plan{Events: []Event{tc.ev}}.Validate(cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Validate = %v, want nil", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// Randomly drawn events are validated too.
	p := Plan{Random: RandomSpec{Count: 1, End: at, Kinds: []Kind{KindClusterReplug + 1}}}
	if err := p.Validate(cfg); err == nil {
		t.Error("a random draw of an unknown kind passed Validate")
	}
}

// TestAttachRejectsInvalidPlan pins where a bad plan fails: Attach
// panics with Validate's error, which names the event, before it
// schedules anything — not later inside Run when the event fires.
func TestAttachRejectsInvalidPlan(t *testing.T) {
	for _, ev := range []Event{
		{At: 10 * simx.Microsecond, Kind: KindLinkRetrain, Duration: -simx.Microsecond},
		{At: 10 * simx.Microsecond, Kind: KindLinkDegrade, Factor: math.Inf(1)},
	} {
		a, err := array.New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), ev.Kind.String()) {
					t.Errorf("Attach of a %v plan panicked with %v, want an error naming the event", ev.Kind, err)
				}
				if n := a.Engine().Pending(); n != 0 {
					t.Errorf("%v: %d events scheduled before the panic", ev.Kind, n)
				}
			}()
			Attach(a, Plan{Events: []Event{ev}}, Options{})
		}()
	}
}
