// Package trace declares the cluster's decision stream: one typed Decision
// per placement, handoff, role flip, scaling action, admission verdict,
// fleet op, health transition and fleet-controller step. It holds
// declarations only. The deciding layers (internal/cluster, internal/fleet)
// build a record only when an observer is installed
// (cluster.Cluster.OnDecision), hand it over by value in the deciding
// process, and keep nothing; the observer owns retention. %+v is the
// rendering.
package trace

import "time"

// Kind names what was decided. Each kind's comment lists the Decision
// fields it fills beyond T and Kind.
type Kind string

// Placement and handoff (internal/cluster).
const (
	Place       Kind = "place"        // a launch attempt placed: Replica, Program
	Handoff     Kind = "handoff"      // a session moved: Session, Replica -> Dest, Pages, Cost, Chosen, RunnerUp
	HandoffDeny Kind = "handoff-deny" // a handoff refused, the session decodes in place: Session, Replica, Err
)

// The role balancer (internal/cluster/roles.go).
const (
	RoleFlip Kind = "role-flip" // Replica moved to Role, from the other pool; Balance the window that decided it
)

// The SLO scaler. Every scale record carries the tick's signal: Sat, the
// saturation of the hungriest role (1 when no replica serves), Role, that
// role, and Class and Att, the class missing its attainment target, if any,
// and its recent attainment.
const (
	ScaleUp     Kind = "scale-up"      // Replica activated or un-drained, its Variant and CostRate
	ScaleHold   Kind = "scale-hold"    // a scale-up held while Count replicas are still warming
	ScaleDown   Kind = "scale-down"    // Replica drained, its Variant and CostRate
	ScaleToZero Kind = "scale-to-zero" // Count idle replicas drained after Wait without work
)

// Admission at the saturation guard: Class, KVUtil and Depth, the aggregate
// signals the verdict read.
const (
	Degrade Kind = "degrade" // admitted with output cap Limit; AtRisk names the class it yields to, if any
	Shed    Kind = "shed"    // refused with Err
)

// Fleet ops (internal/cluster/fleetops.go), every change of the active
// replica set, and health transitions: Replica.
const (
	Activate   Kind = "activate"
	Drain      Kind = "drain"
	DrainDone  Kind = "drain-done"
	Deactivate Kind = "deactivate"
	Suspect    Kind = "suspect"
	Dead       Kind = "dead" // Wait from the failure's onset to the verdict; Dest the replacement, -1 when no spare was left
)

// The fleet controller (internal/fleet): Program and Version, the pinned
// target.
const (
	Apply          Kind = "apply"           // a manifest applied: Count its generation, no Program
	Pin            Kind = "pin"             // the registry pin set
	UpgradeStart   Kind = "upgrade-start"   // a rollout begun over Count old-version instances
	UpgradeBatch   Kind = "upgrade-batch"   // Count instances given Wait to finish on their own
	UpgradeRequeue Kind = "upgrade-requeue" // a straggler's Handle restarted on the target
	UpgradeDone    Kind = "upgrade-done"
	Prewarm        Kind = "prewarm" // the artifact Program@Version uploaded to Replica
)

// Decision is one record of the stream. Fields a kind does not list stay
// zero.
type Decision struct {
	T    time.Duration // virtual time of the decision
	Kind Kind

	Replica int    // the replica decided about; a handoff's source
	Dest    int    // a handoff's destination; a dead replica's replacement
	Session string // "name#id" of the instance a handoff record is about
	Handle  uint64 // the launch handle an upgrade requeues
	Class   string // service class ("" for unclassed launches)
	Program string
	Version string
	Variant string // hardware variant of the replica a scaler picked

	Role     string  // scale records: the role whose saturation governed
	Sat      float64 // scale records: that role's mean saturation
	Att      float64 // scale records: Class's recent attainment
	CostRate float64 // cost units per active second of Replica

	KVUtil float64 // admission: KV pages in use / capacity over healthy serving replicas
	Depth  float64 // admission: mean outstanding calls per healthy serving replica
	AtRisk string  // degrade: the higher-priority class missing its objective

	Count int           // the tally the kind names
	Limit int           // the bound the kind names
	Pages int           // distinct KV pages a handoff moved
	Cost  time.Duration // modeled interconnect time of a handoff
	Wait  time.Duration // the span the kind names

	Chosen, RunnerUp Candidate   // handoff: the best two decode replicas
	Balance          RoleBalance // role-flip: the cost model's inputs and verdict
	Err              error
}

// RoleBalance is a role flip's window: N sessions decoding at R decode
// steps per second, and prefill at per-replica load Rho, mean service S and
// Lambda calls per second. Gain is the waiting per second the receiving pool
// sheds and Loss what the donor pool adds; a flip needs Gain > Loss.
type RoleBalance struct {
	N, R, Rho, Lambda float64
	S                 time.Duration
	Gain, Loss        float64
}

// Candidate is a decode replica a handoff weighed: when its first forward
// after the session lands completes (Pred, from the decision) and what its
// outstanding tokens add to that forward (Load). Replica is -1 when there
// was no such candidate.
type Candidate struct {
	Replica    int
	Pred, Load time.Duration
}
