// Package decision is the flight recorder for the autonomic policies:
// a deterministic, bounded-memory trace of every migration, reshaping,
// GC-victim, and fault-recovery decision together with the top-K scored
// alternatives that were considered and a counterfactual regret metric.
//
// Regret is defined against the FULL candidate set, not just the
// eligible one: regret = max(0, bestScoreOverAllCandidates - chosenScore).
// An excluded candidate (degraded hardware, laggard slot, GC veto) that
// would have scored better than the chosen one therefore shows up as
// positive regret — the cost of the exclusion is measurable instead of
// invisible. Regret is zero iff the chosen candidate ties the argmax of
// everything that was scored.
//
// The recorder follows the two-backend pattern of internal/metrics: the
// Off backend is a nil *Recorder, and every recording hook is
// nil-receiver-safe, so the off path costs exactly one nil check on the
// hot paths (it runs inside internal/array's steady-state allocation
// pins, and TestRecordingHooksDoNotAllocate pins the Ring hooks at
// zero). The Ring backend keeps
// a fixed ring of the most recent records plus streaming per-family
// aggregates (count, regret mean/max, regret histogram, per-cluster
// choice distribution, top-regret exemplars) so memory stays bounded at
// any run length. See docs/decision-traces.md.
package decision

import (
	"fmt"
	"strconv"
)

// Backend selects the decision-recording backend, mirroring
// metrics.Backend: the zero value is the default (off).
type Backend uint8

const (
	// Off records nothing. The recorder pointer stays nil and every
	// hook short-circuits on the nil check.
	Off Backend = iota
	// Ring records into a bounded ring of records plus streaming
	// aggregates.
	Ring
)

func (b Backend) String() string {
	switch b {
	case Off:
		return "off"
	case Ring:
		return "ring"
	default:
		return fmt.Sprintf("Backend(%d)", uint8(b))
	}
}

// Family identifies which autonomic policy made a decision.
type Family uint8

const (
	// Migration: core.Manager chose a cold-cluster target for a hot
	// cluster's data (paper Eq.1).
	Migration Family = iota
	// Reshape: core.Manager chose a sibling FIMM slot for laggard
	// reshaping (paper Eq.3).
	Reshape
	// WriteRedirect: core.Manager redirected an incoming write away
	// from a contended or degraded home slot.
	WriteRedirect
	// GCVictim: ftl.PlanGCInto chose a victim block for garbage
	// collection.
	GCVictim
	// Evacuation: the fault injector chose an evacuation destination
	// for a cluster unplug.
	Evacuation
	// Restore: the array chose a fallback mapping while restoring a
	// lost page or redirecting a write off faulted hardware.
	Restore

	numFamilies
)

// NumFamilies is the number of decision families, for sizing
// per-family aggregate tables.
const NumFamilies = int(numFamilies)

func (f Family) String() string {
	switch f {
	case Migration:
		return "migration"
	case Reshape:
		return "reshape"
	case WriteRedirect:
		return "write-redirect"
	case GCVictim:
		return "gc-victim"
	case Evacuation:
		return "evacuation"
	case Restore:
		return "restore"
	//simlint:partial numFamilies is a count sentinel, never a value
	default:
		return fmt.Sprintf("Family(%d)", uint8(f))
	}
}

// ParseFamily is the inverse of Family.String.
func ParseFamily(s string) (Family, error) {
	switch s {
	case "migration":
		return Migration, nil
	case "reshape":
		return Reshape, nil
	case "write-redirect":
		return WriteRedirect, nil
	case "gc-victim":
		return GCVictim, nil
	case "evacuation":
		return Evacuation, nil
	case "restore":
		return Restore, nil
	default:
		return Migration, fmt.Errorf("decision: unknown family %q", s)
	}
}

// MarshalJSON renders the family as its string form so traces are
// self-describing.
func (f Family) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, f.String()), nil
}

func (f *Family) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("decision: family: %w", err)
	}
	v, err := ParseFamily(s)
	if err != nil {
		return err
	}
	*f = v
	return nil
}

// ExcludeReason says why a scored candidate was (or was not) in the
// eligible set. Eligible candidates compete for the choice; excluded
// ones still enter the regret baseline so exclusion cost is visible.
type ExcludeReason uint8

const (
	// Eligible: the candidate was in the choosable set.
	Eligible ExcludeReason = iota
	// ExcludedDegraded: hardware health made the candidate
	// unplaceable (Eq.1/Eq.3 degraded exclusion).
	ExcludedDegraded
	// ExcludedWarm: the candidate's utilization was above the
	// cold-cluster threshold (Eq.1).
	ExcludedWarm
	// ExcludedLaggard: the slot was itself flagged as a laggard
	// (Eq.3 reshaping never targets a laggard).
	ExcludedLaggard
	// ExcludedVetoed: the GC veto hook rejected the block.
	ExcludedVetoed
	// ExcludedRetired: the block or die was retired by a fault.
	ExcludedRetired
)

func (r ExcludeReason) String() string {
	switch r {
	case Eligible:
		return "eligible"
	case ExcludedDegraded:
		return "degraded"
	case ExcludedWarm:
		return "warm"
	case ExcludedLaggard:
		return "laggard"
	case ExcludedVetoed:
		return "vetoed"
	case ExcludedRetired:
		return "retired"
	default:
		return fmt.Sprintf("ExcludeReason(%d)", uint8(r))
	}
}

// ParseExcludeReason is the inverse of ExcludeReason.String.
func ParseExcludeReason(s string) (ExcludeReason, error) {
	switch s {
	case "eligible":
		return Eligible, nil
	case "degraded":
		return ExcludedDegraded, nil
	case "warm":
		return ExcludedWarm, nil
	case "laggard":
		return ExcludedLaggard, nil
	case "vetoed":
		return ExcludedVetoed, nil
	case "retired":
		return ExcludedRetired, nil
	default:
		return Eligible, fmt.Errorf("decision: unknown exclude reason %q", s)
	}
}

func (r ExcludeReason) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, r.String()), nil
}

func (r *ExcludeReason) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("decision: exclude reason: %w", err)
	}
	v, err := ParseExcludeReason(s)
	if err != nil {
		return err
	}
	*r = v
	return nil
}

const (
	// MaxAlternatives is the number of top-scored alternatives kept
	// per record. Candidates beyond the top-K still count toward NCand
	// and the regret baseline; only their details are dropped.
	MaxAlternatives = 8
	// TopExemplars is the number of highest-regret decisions retained
	// in the streaming summary.
	TopExemplars = 8
	// DefaultRingSize is the bounded ring capacity: the most recent
	// DefaultRingSize decisions keep their full records.
	DefaultRingSize = 4096
)

// Alternative is one scored candidate retained in a record's top-K.
type Alternative struct {
	ID     int64         `json:"id"`
	Score  float64       `json:"score"`
	Reason ExcludeReason `json:"reason"`
}
