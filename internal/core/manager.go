// Package core implements the paper's primary contribution: the
// autonomic flash array management module (Section 4). Attached to an
// array's hook points it turns the non-autonomic baseline into
// Triple-A:
//
//   - Link contention management (Section 4.1): straggler I/O requests
//     are detected with Equation 1, a cold cluster under the same
//     switch is selected with Equation 2, and the straggler's data is
//     migrated there — overlapped with the in-flight host transfer via
//     shadow cloning.
//   - Storage contention management (Section 4.2): laggard FIMMs are
//     detected by latency monitoring (Equation 3) or queue examination,
//     and the physical data layout is reshaped: hot read data drains to
//     sibling FIMMs, stalled writes are redirected, and when every FIMM
//     in a cluster is a laggard the data leaves the cluster entirely.
package core

import (
	"slices"

	"triplea/internal/array"
	"triplea/internal/cluster"
	"triplea/internal/decision"
	"triplea/internal/nand"
	"triplea/internal/simx"
	"triplea/internal/topo"
	"triplea/internal/trace"
	"triplea/internal/units"
)

// LaggardStrategy selects how laggards are detected (Section 4.2).
type LaggardStrategy int

const (
	// LatencyMonitoring detects a laggard when the expected service
	// time of its stalled requests violates the SLA (Equation 3).
	LatencyMonitoring LaggardStrategy = iota
	// QueueExamination detects laggards only when the endpoint queue is
	// full, blaming the FIMM holding the most stalled entries.
	QueueExamination
)

func (s LaggardStrategy) String() string {
	switch s {
	case LatencyMonitoring:
		return "latency-monitoring"
	case QueueExamination:
		return "queue-examination"
	}
	return "unknown"
}

// Options configures the manager. The zero value disables everything;
// DefaultOptions enables the full Triple-A feature set.
type Options struct {
	LinkManagement    bool // hot-cluster detection + autonomic data migration
	StorageManagement bool // laggard detection + data-layout reshaping
	ShadowCloning     bool // overlap migration reads with host transfers
	Strategy          LaggardStrategy

	// MaxInflightMigrations bounds concurrent background moves so the
	// repair traffic cannot swamp the fabric.
	MaxInflightMigrations int
	// WearAware breaks placement ties toward less-worn FIMMs — the
	// central module knows every module's erase counts (Section 6.7),
	// so reshaping doubles as global wear leveling.
	WearAware bool
}

// batchReshapePages is how many recently served pages of a laggard are
// reshaped per detection. The paper moves the data of all the stalled
// requests at once (Figure 8); the manager approximates their identity
// with the laggard's most recent working set.
const batchReshapePages = 8

// DefaultOptions returns the full Triple-A configuration.
func DefaultOptions() Options {
	return Options{
		LinkManagement:        true,
		StorageManagement:     true,
		ShadowCloning:         true,
		Strategy:              LatencyMonitoring,
		MaxInflightMigrations: 256,
		WearAware:             true,
	}
}

// Stats counts the manager's decisions.
type Stats struct {
	HotDetections    uint64 // Equation 1 firings
	ColdMisses       uint64 // hot detections with no cold cluster available
	Migrations       uint64 // cross-cluster page migrations started
	ShadowClones     uint64 // migrations that skipped the device read
	LaggardsDetected uint64
	Reshapes         uint64 // intra-cluster page moves started
	WriteRedirects   uint64 // writes steered away from laggards
	MigrationErrors  uint64
}

// Manager is the autonomic flash array management module.
type Manager struct {
	arr *array.Array
	opt Options
	// geom is the array's geometry, copied once at Attach: every page
	// completion needs it, and Array.Config copies the whole Config.
	geom *topo.Geometry

	busTime  simx.Time // tDMA: shared-bus time per page
	texeRead simx.Time // nominal read cell time
	nFIMM    int
	sla      simx.Time

	// Equation 2 sampling state, per flat cluster index.
	util []cluster.BusSampler

	inflight  int
	migrating map[int64]bool // LPNs currently moving

	// recent tracks each FIMM's most recently served LPNs (a proxy for
	// the data its stalled requests want), fueling batch reshaping.
	// Indexed by flat FIMM id; nil until the FIMM serves a page.
	recent []*lpnRing
	// recentScratch backs the snapshot reshapeBatch iterates, so
	// reshaping allocates nothing per batch. Valid until the next batch.
	recentScratch []int64

	// laggardScratch backs detectLaggards, which runs on every page
	// completion and every write-target decision; reusing one buffer
	// keeps both hot paths allocation-free. Valid until the next call.
	laggardScratch []bool

	// dec is the array's decision flight recorder; nil when recording
	// is off, making every recording hook a single nil check.
	dec *decision.Recorder

	stats Stats
}

// lpnRing is a fixed-size ring of recently served logical pages.
type lpnRing struct {
	buf  []int64
	next int
	full bool
}

func newLPNRing(n int) *lpnRing { return &lpnRing{buf: make([]int64, n)} }

func (r *lpnRing) add(lpn int64) {
	r.buf[r.next] = lpn
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// snapshot appends the ring's contents to dst[:0], most recent first,
// deduplicated, and returns it. The ring is a few dozen LPNs, so a
// linear scan of what is already out finds duplicates.
func (r *lpnRing) snapshot(dst []int64) []int64 {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := dst[:0]
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		if lpn := r.buf[idx]; !slices.Contains(out, lpn) {
			out = append(out, lpn)
		}
	}
	return out
}

// Attach builds a manager and registers it on the array. The array
// becomes a Triple-A; call before Run.
func Attach(a *array.Array, opt Options) *Manager {
	cfg := a.Config()
	if opt.MaxInflightMigrations <= 0 {
		opt.MaxInflightMigrations = DefaultOptions().MaxInflightMigrations
	}
	m := &Manager{
		arr:       a,
		opt:       opt,
		geom:      &cfg.Geometry,
		busTime:   cfg.BusPageTime(),
		texeRead:  cfg.Geometry.Nand.NominalTime(nand.OpRead),
		nFIMM:     cfg.Geometry.FIMMsPerCluster,
		sla:       cfg.SLA,
		util:      make([]cluster.BusSampler, cfg.Geometry.TotalClusters()),
		migrating: make(map[int64]bool),
		recent:    make([]*lpnRing, cfg.Geometry.TotalFIMMs()),

		laggardScratch: make([]bool, cfg.Geometry.FIMMsPerCluster),
		recentScratch:  make([]int64, 0, 4*batchReshapePages),
	}
	m.dec = a.Decisions()
	a.SetHooks(m)
	return m
}

// Stats returns a snapshot of manager activity.
func (m *Manager) Stats() Stats { return m.stats }

// Options returns the active configuration.
func (m *Manager) Options() Options { return m.opt }

// OnPageComplete implements array.Hooks: every finished page command
// runs the two detectors.
func (m *Manager) OnPageComplete(pc array.PageComplete) {
	if m.opt.StorageManagement {
		m.rememberServed(pc)
	}
	if m.opt.LinkManagement && pc.Op == trace.Read {
		m.manageLinkContention(pc)
	}
	if m.opt.StorageManagement {
		m.manageStorageContention(pc)
	}
}

// rememberServed records the page in its FIMM's recent-working-set ring.
func (m *Manager) rememberServed(pc array.PageComplete) {
	flat := topo.FIMMID{ClusterID: pc.Cluster, FIMM: pc.FIMM}.Flat(m.geom)
	r := m.recent[flat]
	if r == nil {
		r = newLPNRing(4 * batchReshapePages)
		m.recent[flat] = r
	}
	r.add(pc.LPN)
}

// hotThreshold is the right-hand side of Equation 1:
// tDMA*(npage + nFIMM - 1) + texe*npage.
func (m *Manager) hotThreshold(npage units.Pages) simx.Time {
	waves := npage + units.Pages(m.nFIMM) - 1
	return units.ScaleByPages(m.busTime, waves) + units.ScaleByPages(m.texeRead, npage)
}

// manageLinkContention applies Equation 1 to the completed request and,
// on detection, migrates the straggler's page to a cold cluster under
// the same switch. Equation 1 captures the regime where the shared bus
// is busy most of the time, so detection additionally requires the
// cluster's bus utilisation to exceed the two-FIMM level — a transient
// die collision on an otherwise idle cluster is not a hot cluster.
func (m *Manager) manageLinkContention(pc array.PageComplete) {
	if pc.Result.DeviceLatency() < m.hotThreshold(pc.Pages) {
		return
	}
	if m.utilization(pc.Cluster) < 2/float64(m.nFIMM) {
		return
	}
	m.stats.HotDetections++
	cold, ok := m.coldClusterNear(pc.Cluster, decision.Migration)
	if !ok {
		m.stats.ColdMisses++
		return
	}
	dst := topo.FIMMID{ClusterID: cold, FIMM: m.leastStalledFIMM(cold)}
	m.startMove(pc.LPN, dst, true /* data just staged in the source EP */)
}

// manageStorageContention runs laggard detection on the completed
// command's cluster and reshapes the just-served page off a laggard.
func (m *Manager) manageStorageContention(pc array.PageComplete) {
	ep := m.arr.Endpoint(pc.Cluster)
	laggards := m.detectLaggards(ep)
	if len(laggards) == 0 {
		return
	}
	if !laggards[pc.FIMM] {
		return // the served page does not live on a laggard
	}
	m.stats.LaggardsDetected++

	if m.allLaggards(laggards) {
		// Every FIMM is a laggard: reshaping inside the cluster cannot
		// help; migrate across clusters like hot-cluster management.
		if cold, ok := m.coldClusterNear(pc.Cluster, decision.Migration); ok {
			dst := topo.FIMMID{ClusterID: cold, FIMM: m.leastStalledFIMM(cold)}
			m.startMove(pc.LPN, dst, pc.Op == trace.Read)
		} else {
			m.stats.ColdMisses++
		}
		return
	}
	// Reshape: move the laggard's hot working set — the just-served
	// page plus its most recently served pages (a proxy for the stalled
	// requests' data, Figure 8) — to the least-stalled sibling FIMMs.
	// The just-served page can shadow-copy; the rest need device reads
	// unless still buffered.
	dst := topo.FIMMID{ClusterID: pc.Cluster, FIMM: m.siblingFIMM(ep, laggards, decision.Reshape)}
	m.stats.Reshapes++
	m.startMove(pc.LPN, dst, true)
	m.reshapeBatch(pc, laggards)
}

// reshapeBatch drains up to batchReshapePages recent pages off the
// laggard. It only runs while the cluster's shared bus has headroom:
// batch moves need device reads, and burning a saturated bus on repair
// traffic would convert storage contention into link contention.
func (m *Manager) reshapeBatch(pc array.PageComplete, laggards []bool) {
	if m.utilization(pc.Cluster) > 0.5 {
		return
	}
	laggard := topo.FIMMID{ClusterID: pc.Cluster, FIMM: pc.FIMM}
	ring := m.recent[laggard.Flat(m.geom)]
	if ring == nil {
		return
	}
	ep := m.arr.Endpoint(pc.Cluster)
	moved := 0
	m.recentScratch = ring.snapshot(m.recentScratch)
	for _, lpn := range m.recentScratch {
		if moved >= batchReshapePages {
			break
		}
		if lpn == pc.LPN || m.migrating[lpn] {
			continue
		}
		// Only pages still resident on the laggard are worth moving.
		if m.arr.FTL().ResidentFIMM(lpn) != laggard {
			continue
		}
		dst := topo.FIMMID{ClusterID: pc.Cluster, FIMM: m.siblingFIMM(ep, laggards, decision.Reshape)}
		m.stats.Reshapes++
		m.startMove(lpn, dst, false /* not in the EP: device read needed */)
		moved++
	}
}

// WriteTarget implements array.Hooks: writes headed to a laggard are
// redirected to an adjacent FIMM within the same cluster (Section 4.2's
// write handling), or to a cold cluster when the whole cluster lags.
func (m *Manager) WriteTarget(lpn int64, resident topo.FIMMID) topo.FIMMID {
	if !m.opt.StorageManagement {
		return resident
	}
	ep := m.arr.Endpoint(resident.ClusterID)
	laggards := m.detectLaggards(ep)
	if len(laggards) == 0 || !laggards[resident.FIMM] {
		return resident
	}
	if m.allLaggards(laggards) {
		if cold, ok := m.coldClusterNear(resident.ClusterID, decision.WriteRedirect); ok {
			m.stats.WriteRedirects++
			return topo.FIMMID{ClusterID: cold, FIMM: m.leastStalledFIMM(cold)}
		}
		return resident
	}
	m.stats.WriteRedirects++
	return topo.FIMMID{ClusterID: resident.ClusterID, FIMM: m.siblingFIMM(ep, laggards, decision.WriteRedirect)}
}

// detectLaggards reports, per FIMM slot, whether the slot is a laggard
// under the configured strategy. A nil result means none. A non-nil
// result aliases the manager's scratch buffer and is valid only until
// the next detectLaggards call — both detectors run per event, so this
// path must not allocate.
func (m *Manager) detectLaggards(ep *cluster.Endpoint) []bool {
	stalled := ep.StalledPerFIMM()
	out := m.laggardScratch[:len(stalled)]
	for i := range out {
		out[i] = false
	}
	switch m.opt.Strategy {
	case QueueExamination:
		if !ep.QueueFull() {
			return nil
		}
		// Blame the slot(s) holding the most stalled entries.
		max := 0
		for _, n := range stalled {
			if n > max {
				max = n
			}
		}
		if max == 0 {
			return nil
		}
		any := false
		for i, n := range stalled {
			if n == max {
				out[i] = true
				any = true
			}
		}
		if !any {
			return nil
		}
		return out
	case LatencyMonitoring: // Equation 3
		perReq := m.busTime + m.texeRead
		any := false
		for i, n := range stalled {
			if simx.Time(n)*perReq > m.sla {
				out[i] = true
				any = true
			}
		}
		if !any {
			return nil
		}
		return out
	}
	return nil
}

// allLaggards reports whether every slot is marked.
func (m *Manager) allLaggards(laggards []bool) bool {
	for _, l := range laggards {
		if !l {
			return false
		}
	}
	return len(laggards) > 0
}

// siblingFIMM picks the least-stalled non-laggard FIMM of the cluster,
// breaking ties toward the least-worn module when wear awareness is on.
//
// When called with a laggard set (a reshape or write-redirect choice)
// the decision is recorded with every slot scored at -stalled: laggard
// and unplaceable slots enter the regret baseline as exclusions. The
// wear tiebreak only reorders equal scores, so it never adds regret.
// The laggards == nil form (leastStalledFIMM) is a sub-step of a
// migration decision already being recorded by coldClusterNear and is
// deliberately not re-recorded.
func (m *Manager) siblingFIMM(ep *cluster.Endpoint, laggards []bool, fam decision.Family) int {
	stalled := ep.StalledPerFIMM()
	health := m.arr.Health()
	rec := m.dec
	if laggards == nil {
		rec = nil
	}
	if rec != nil {
		rec.Begin(fam, ep.ID().Flat(m.geom), m.arr.Engine().Now())
	}
	best, bestN := -1, int(^uint(0)>>1)
	var bestWear uint64
	for i, n := range stalled {
		if laggards != nil && laggards[i] {
			if rec != nil {
				rec.Candidate(int64(i), -float64(n), decision.ExcludedLaggard)
			}
			continue
		}
		if !health.Placeable(topo.FIMMID{ClusterID: ep.ID(), FIMM: i}) {
			// Dead or evacuating modules take no new data.
			if rec != nil {
				rec.Candidate(int64(i), -float64(n), decision.ExcludedDegraded)
			}
			continue
		}
		if rec != nil {
			rec.Candidate(int64(i), -float64(n), decision.Eligible)
		}
		if n > bestN {
			continue
		}
		wear := uint64(0)
		if m.opt.WearAware {
			wear = m.arr.FTL().Wear(topo.FIMMID{ClusterID: ep.ID(), FIMM: i})
		}
		if n < bestN || wear < bestWear {
			best, bestN, bestWear = i, n, wear
		}
	}
	if rec != nil {
		if best >= 0 {
			rec.Commit(int64(best), -float64(bestN), ep.ID().Flat(m.geom))
		} else {
			rec.Commit(0, -float64(stalled[0]), ep.ID().Flat(m.geom))
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// leastStalledFIMM picks the emptiest FIMM of a cluster.
func (m *Manager) leastStalledFIMM(id topo.ClusterID) int {
	return m.siblingFIMM(m.arr.Endpoint(id), nil, decision.Migration)
}

// coldClusterNear applies Equation 2 under the hot cluster's switch:
// the least-utilised cluster whose shared-bus utilisation over the
// sampling window is below 1/nFIMM (on average at most one FIMM using
// the bus). Triple-A never migrates across switches (Section 6.1).
//
// Every sibling cluster is recorded as a decision candidate at score
// -utilisation: degraded siblings (excluded from the Eq.1/Eq.2
// candidate set) are scored through utilizationPeek so recording never
// perturbs the sampling cache the off path maintains.
func (m *Manager) coldClusterNear(hot topo.ClusterID, fam decision.Family) (topo.ClusterID, bool) {
	g := m.geom
	threshold := 1 / float64(m.nFIMM)
	best := topo.ClusterID{}
	bestU := threshold
	found := false
	rec := m.dec
	if rec != nil {
		rec.Begin(fam, hot.Flat(g), m.arr.Engine().Now())
	}
	for c := 0; c < g.ClustersPerSwitch; c++ {
		id := topo.ClusterID{Switch: hot.Switch, Cluster: c}
		if id == hot {
			continue
		}
		if !m.arr.Health().ClusterPlaceable(id) {
			// Degraded or unplugged clusters leave the candidate set.
			if rec != nil {
				rec.Candidate(int64(id.Flat(g)), -m.utilizationPeek(id), decision.ExcludedDegraded)
			}
			continue
		}
		u := m.utilization(id)
		if rec != nil {
			reason := decision.Eligible
			if u >= threshold {
				reason = decision.ExcludedWarm
			}
			rec.Candidate(int64(id.Flat(g)), -u, reason)
		}
		if u < bestU {
			best, bestU, found = id, u, true
		}
	}
	if rec != nil {
		if found {
			rec.Commit(int64(best.Flat(g)), -bestU, best.Flat(g))
		} else {
			rec.Commit(-1, -1, -1)
		}
	}
	return best, found
}

// utilizationPeek scores a cluster's bus utilisation WITHOUT updating
// the Equation 2 sampling cache. The flight recorder scores candidates
// the policy itself never samples (degraded clusters); going through
// utilization() for those would roll their windows and diverge the
// cached values from a recording-off run.
func (m *Manager) utilizationPeek(id topo.ClusterID) float64 {
	return m.util[id.Flat(m.geom)].Peek(m.arr.Endpoint(id))
}

// utilization samples a cluster's shared-bus utilisation over the
// sliding window, caching between window rolls.
func (m *Manager) utilization(id topo.ClusterID) float64 {
	return m.util[id.Flat(m.geom)].Sample(m.arr.Endpoint(id))
}

// startMove launches one page move, deduplicating in-flight LPNs and
// bounding concurrency.
func (m *Manager) startMove(lpn int64, dst topo.FIMMID, canShadow bool) {
	if m.migrating[lpn] || m.inflight >= m.opt.MaxInflightMigrations {
		return
	}
	shadow := canShadow && m.opt.ShadowCloning
	m.migrating[lpn] = true
	m.inflight++
	m.stats.Migrations++
	if shadow {
		m.stats.ShadowClones++
	}
	m.arr.MigratePage(lpn, dst, shadow, m)
}

// OnMigrated implements array.Migrated: a page move started by
// startMove ended.
func (m *Manager) OnMigrated(lpn int64, err error) {
	delete(m.migrating, lpn)
	m.inflight--
	if err != nil {
		m.stats.MigrationErrors++
	}
}

var _ array.Hooks = (*Manager)(nil)
