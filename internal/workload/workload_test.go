package workload

import (
	"math"
	"testing"

	"triplea/internal/nand"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
)

func testGeometry() topo.Geometry {
	n := nand.DefaultParams()
	n.BlocksPerPlane = 64
	return topo.Geometry{
		Switches:          4,
		ClustersPerSwitch: 16,
		FIMMsPerCluster:   4,
		PackagesPerFIMM:   8,
		Nand:              n,
	}
}

func TestTable1ProfilesComplete(t *testing.T) {
	profiles := Table1Profiles()
	if len(profiles) != 13 {
		t.Fatalf("%d profiles, want 13", len(profiles))
	}
	want := map[string]struct {
		readRatio float64
		hot       int
		hotRatio  float64
	}{
		"cfs": {0.765, 0, 0}, "fin": {0.502, 5, 0.557}, "hm": {0.551, 5, 0.437},
		"mds": {0.259, 4, 0.541}, "msnfs": {0.528, 4, 0.288}, "prn": {0.971, 2, 0.509},
		"proj": {0.291, 6, 0.613}, "prxy": {0.611, 3, 0.393}, "usr": {0.289, 5, 0.401},
		"web": {1, 0, 0}, "websql": {0.543, 4, 0.506},
		"g-eigen": {1, 6, 0.706}, "l-eigen": {1, 11, 0.481},
	}
	for _, p := range profiles {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected profile %q", p.Name)
			continue
		}
		if math.Abs(p.ReadRatio-w.readRatio) > 1e-9 {
			t.Errorf("%s ReadRatio = %v, want %v", p.Name, p.ReadRatio, w.readRatio)
		}
		if p.HotClusters != w.hot {
			t.Errorf("%s HotClusters = %d, want %d", p.Name, p.HotClusters, w.hot)
		}
		if math.Abs(p.HotIORatio-w.hotRatio) > 1e-9 {
			t.Errorf("%s HotIORatio = %v, want %v", p.Name, p.HotIORatio, w.hotRatio)
		}
	}
	// websql's hot clusters sit on one switch; others spread.
	p, _ := ProfileByName("websql")
	if !p.HotSameSwitch {
		t.Error("websql not pinned to one switch")
	}
	if p, _ := ProfileByName("g-eigen"); p.HotSameSwitch {
		t.Error("g-eigen wrongly pinned to one switch")
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("nope"); ok {
		t.Error("found nonexistent profile")
	}
	p, ok := ProfileByName("fin")
	if !ok || p.Name != "fin" {
		t.Error("fin not found")
	}
}

func TestHotSetSpread(t *testing.T) {
	g := testGeometry()
	p := Profile{HotClusters: 6}
	hot := HotSet(g, p)
	if len(hot) != 6 {
		t.Fatalf("|hot| = %d", len(hot))
	}
	switches := map[int]int{}
	for _, c := range hot {
		switches[c.Switch]++
	}
	if len(switches) != 4 {
		t.Errorf("6 spread hot clusters used %d switches, want 4", len(switches))
	}
	// Distinct clusters.
	seen := map[int]bool{}
	for _, c := range hot {
		if seen[c.Flat(&g)] {
			t.Errorf("duplicate hot cluster %v", c)
		}
		seen[c.Flat(&g)] = true
	}
}

func TestHotSetSameSwitch(t *testing.T) {
	g := testGeometry()
	hot := HotSet(g, Profile{HotClusters: 4, HotSameSwitch: true})
	for _, c := range hot {
		if c.Switch != 0 {
			t.Errorf("hot cluster %v not on switch 0", c)
		}
	}
	if HotSet(g, Profile{}) != nil {
		t.Error("HotSet without hot clusters not nil")
	}
}

func TestGenerateMatchesProfile(t *testing.T) {
	g := testGeometry()
	p, _ := ProfileByName("fin")
	p.Requests = 20000
	reqs, stats, err := Generate(g, p, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != p.Requests {
		t.Fatalf("generated %d requests", len(reqs))
	}
	if math.Abs(stats.ReadRatio()-p.ReadRatio) > 0.02 {
		t.Errorf("generated read ratio %v, want ~%v", stats.ReadRatio(), p.ReadRatio)
	}
	if math.Abs(stats.HotIORatio()-p.HotIORatio) > 0.02 {
		t.Errorf("generated hot ratio %v, want ~%v", stats.HotIORatio(), p.HotIORatio)
	}
	if math.Abs(stats.ReadRandomness()-p.ReadRandomness) > 0.03 {
		t.Errorf("read randomness %v, want ~%v", stats.ReadRandomness(), p.ReadRandomness)
	}
	if math.Abs(stats.WriteRandomness()-p.WriteRandomness) > 0.03 {
		t.Errorf("write randomness %v, want ~%v", stats.WriteRandomness(), p.WriteRandomness)
	}
	// Offered rate close to requested.
	ts := trace.Summarize(reqs)
	if r := ts.OfferedIOPS(); math.Abs(r-p.RateIOPS)/p.RateIOPS > 0.05 {
		t.Errorf("offered rate %v, want ~%v", r, p.RateIOPS)
	}
	// Arrivals are sorted.
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			t.Fatal("arrivals not monotonic")
		}
	}
}

func TestGenerateHotTraffic(t *testing.T) {
	g := testGeometry()
	p, _ := ProfileByName("g-eigen")
	p.Requests = 10000
	reqs, stats, err := Generate(g, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	hotFlats := map[int]bool{}
	for _, c := range stats.HotClusters {
		hotFlats[c.Flat(&g)] = true
	}
	pagesPerCluster := g.PagesPerFIMM().Int64() * int64(g.FIMMsPerCluster)
	hot := 0
	for _, r := range reqs {
		if hotFlats[int(r.LPN/pagesPerCluster)] {
			hot++
		}
	}
	frac := float64(hot) / float64(len(reqs))
	if math.Abs(frac-p.HotIORatio) > 0.02 {
		t.Errorf("hot LPN fraction %v, want ~%v", frac, p.HotIORatio)
	}
}

func TestGenerateFootprintBounded(t *testing.T) {
	g := testGeometry()
	p := MicroRead(3, 5000, 100_000)
	p.Footprint = 128
	reqs, _, err := Generate(g, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	pagesPerCluster := g.PagesPerFIMM().Int64() * int64(g.FIMMsPerCluster)
	for _, r := range reqs {
		off := r.LPN % pagesPerCluster
		if off >= 128 {
			t.Fatalf("LPN %d offset %d beyond footprint", r.LPN, off)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := testGeometry()
	p := MicroRead(2, 1000, 50_000)
	a, _, _ := Generate(g, p, 99)
	b, _, _ := Generate(g, p, 99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
	c, _, _ := Generate(g, p, 100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	g := testGeometry()
	if _, _, err := Generate(g, Profile{Requests: 0, RateIOPS: 1}, 1); err == nil {
		t.Error("zero requests accepted")
	}
	if _, _, err := Generate(g, Profile{Requests: 1, RateIOPS: 0}, 1); err == nil {
		t.Error("zero rate accepted")
	}
	bad := g
	bad.Switches = 0
	if _, _, err := Generate(bad, MicroRead(1, 10, 1000), 1); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestMicroProfiles(t *testing.T) {
	r := MicroRead(4, 100, 1000)
	if r.ReadRatio != 1 || r.HotClusters != 4 || r.HotIORatio != 0.7 {
		t.Errorf("MicroRead = %+v", r)
	}
	w := MicroWrite(0, 100, 1000)
	if w.ReadRatio != 0 || w.HotIORatio != 0 {
		t.Errorf("MicroWrite = %+v", w)
	}
	if hotRatioFor(10) != 0.85 {
		t.Errorf("hotRatioFor(10) = %v, want cap 0.85", hotRatioFor(10))
	}
}

func TestZipfSkewConcentratesAccesses(t *testing.T) {
	g := testGeometry()
	p := MicroRead(1, 20000, 100_000)
	p.Footprint = 256
	p.ZipfSkew = 0.99
	reqs, _, err := Generate(g, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	pagesPerCluster := g.PagesPerFIMM().Int64() * int64(g.FIMMsPerCluster)
	counts := map[int64]int{}
	for _, r := range reqs {
		counts[r.LPN%pagesPerCluster]++
	}
	// Top-16 pages should absorb a large share under zipf 0.99, and the
	// most popular page must dominate the median one.
	top := 0
	for off := int64(0); off < 16; off++ {
		top += counts[off]
	}
	frac := float64(top) / float64(len(reqs))
	if frac < 0.25 {
		t.Errorf("top-16 zipf pages got %.2f of accesses, want >= 0.25", frac)
	}
	if counts[0] <= counts[128]*4 {
		t.Errorf("rank-0 count %d not >> rank-128 count %d", counts[0], counts[128])
	}

	// Uniform control: top-16 of 256 pages get about 6%.
	p.ZipfSkew = 0
	reqs, _, _ = Generate(g, p, 3)
	counts = map[int64]int{}
	for _, r := range reqs {
		counts[r.LPN%pagesPerCluster]++
	}
	top = 0
	for off := int64(0); off < 16; off++ {
		top += counts[off]
	}
	if frac := float64(top) / float64(len(reqs)); frac > 0.12 {
		t.Errorf("uniform top-16 share %.2f, want ~0.06", frac)
	}
}

func TestZipfSamplerBounds(t *testing.T) {
	z := newZipfSampler(64, 1.2)
	rng := simx.NewRNG(9)
	for i := 0; i < 10000; i++ {
		if v := z.draw(rng); v < 0 || v >= 64 {
			t.Fatalf("draw %d out of range", v)
		}
	}
}
