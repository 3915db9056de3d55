package fleet

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"pie/internal/cluster"
	"pie/internal/ilm"
	"pie/internal/sim"
	"pie/internal/trace"
)

// Controller is the reconciling fleet controller: a phase of the cluster
// tick that diffs the manifest's desired state against the live cluster
// each pass and converges it — growing or draining pools toward their
// desired counts, applying program pins, and rolling old-version instances
// onto newly pinned versions in bounded batches. The tick completes
// two-phase drains right before the pass.
//
// Everything it does is deterministic on the virtual clock: replicas are
// visited in ID order, handles in launch order, pools and pins in
// manifest order, so same-seed runs produce identical decision records.
// The controller's own decisions go into the cluster's decision stream
// (cluster.Cluster.Decide) beside the cluster's; its pool resizes are the
// fleet-op records cluster.Cluster.Resize makes.
type Controller struct {
	clock *sim.Clock
	cl    *cluster.Cluster
	lm    *ilm.ILM

	desired    *Manifest
	pools      []PoolRange // desired's pools, expanded once per manifest
	generation int
	lastTick   time.Duration // the last pass; 0 before the first

	// upgrades tracks one in-flight upgrade per program.
	upgrades map[string]*upgradeState
	handles  []*ilm.Handle // one program's running handles, reused per pass
}

// upgradeState is one program's upgrade in flight: the prewarm of its
// target, then the rollout onto it.
type upgradeState struct {
	target    string        // canonical pinned version being rolled to
	warmUntil time.Duration // when the target's last prewarm upload lands
	batch     []uint64      // handle IDs draining in the current batch
	deadline  time.Duration // when stragglers in the batch are requeued
}

// NewController builds a controller over a validated manifest and puts its
// reconcile pass on the cluster tick, every Reconcile.Interval. Call it
// before the cluster's Start, and AlignInitial before traffic.
func NewController(clock *sim.Clock, cl *cluster.Cluster, lm *ilm.ILM, m *Manifest) *Controller {
	c := &Controller{clock: clock, cl: cl, lm: lm, upgrades: make(map[string]*upgradeState)}
	c.setDesired(m)
	cl.EnableReconcile(m.Reconcile.EffectiveInterval(), c.reconcile)
	return c
}

// setDesired snapshots a validated manifest, its pin versions canonical so
// passes compare them with the registry's as they are.
func (c *Controller) setDesired(m *Manifest) {
	c.desired = m.Clone()
	for i := range c.desired.Programs {
		c.desired.Programs[i].Version, _ = ilm.CanonicalVersion(c.desired.Programs[i].Version)
	}
	c.pools = c.desired.PoolRanges()
}

// Desired returns the manifest currently being reconciled toward.
func (c *Controller) Desired() *Manifest { return c.desired }

// Apply replaces desired state by hot reload: the next manifest is
// validated, checked compatible (pool counts, pins, placement, and the
// upgrade tuning may change live; topology and the reconcile interval may
// not — typed ErrImmutable), and snapshotted. Convergence happens on
// subsequent passes.
func (c *Controller) Apply(next *Manifest) error {
	if err := next.Validate(); err != nil {
		return err
	}
	if err := c.desired.CheckCompatible(next); err != nil {
		return err
	}
	c.setDesired(next)
	c.generation++
	c.cl.SetPlacement(next.PlacementPolicy())
	c.cl.Decide(trace.Decision{Kind: trace.Apply, Count: c.generation})
	return nil
}

// AlignInitial aligns the boot-time active set with the manifest's pools.
// The cluster activates the first N replica IDs at construction; with
// pools holding headroom (max > count), the desired set is per-pool — eg
// pools [4/6, 2/2] want {0..3, 6..7} active, not {0..5}. Runs once,
// before any traffic, so idle-deactivation is safe.
func (c *Controller) AlignInitial() {
	for _, pr := range c.pools {
		for _, r := range c.poolReplicas(pr) {
			if r.ID < pr.Start+pr.Desired {
				c.cl.Activate(r)
			} else {
				c.cl.Deactivate(r)
			}
		}
	}
}

// reconcile is one pass, the cluster tick's reconcile phase: resize each
// pool to its desired count in ID order (unless the SLO scaler owns the
// counts), then reconcile program pins and advance rolling upgrades — in that order, so a replica just
// activated is prewarmed with the rest. It runs in a timer and never
// blocks.
func (c *Controller) reconcile(now time.Duration) {
	c.lastTick = now
	if c.desired.Scaler == nil {
		for _, pr := range c.pools {
			c.cl.Resize(c.poolReplicas(pr), pr.Desired, nil)
		}
	}
	c.reconcilePins(now)
}

// poolReplicas returns the pool's replicas in ID order (pie.New builds
// every pool's capacity, and a hot reload cannot change it).
func (c *Controller) poolReplicas(pr PoolRange) []*cluster.Replica {
	return c.cl.Replicas()[pr.Start:pr.End]
}

// reconcilePins applies each manifest pin to the registry and rolls any
// running old-version instances onto the pinned version: prewarm the
// target artifact on serving replicas BEFORE the cutover (so launches
// resolving the new pin — and upgrade relaunches — never pay a cold
// start), then drain old instances in bounded batches (letting them
// finish naturally inside the batch deadline), and abort-and-requeue
// stragglers past it.
func (c *Controller) reconcilePins(now time.Duration) {
	for _, pin := range c.desired.Programs {
		if cur, ok := c.lm.Pinned(pin.Name); !ok || cur != pin.Version {
			// Warm first, cut over second: until the last upload lands,
			// passes skip this pin, so new launches still resolve the old
			// one and none lands cold on the new version. Only a version
			// CHANGE prewarms — the boot install applies immediately,
			// before bare names can float to a newer registered version.
			if ok && c.desired.Reconcile.EffectivePrewarm() {
				st := c.upgrades[pin.Name]
				if st == nil || st.target != pin.Version {
					until, registered := c.prewarm(pin.Name, pin.Version, now)
					if !registered {
						continue
					}
					st = &upgradeState{target: pin.Version, warmUntil: until}
					c.upgrades[pin.Name] = st
				}
				if now < st.warmUntil {
					continue
				}
			}
			if c.lm.SetPin(pin.Name, pin.Version) != nil {
				continue // target not registered yet: Status reports it unpinned
			}
			delete(c.upgrades, pin.Name) // any prewarm is over: the rollout begins
			c.cl.Decide(trace.Decision{Kind: trace.Pin, Program: pin.Name, Version: pin.Version})
		}
		c.advanceUpgrade(pin.Name, pin.Version, now)
	}
}

// advanceUpgrade drives one program's rollout toward the pinned version.
func (c *Controller) advanceUpgrade(name, target string, now time.Duration) {
	// The running handles still off the target, in launch order.
	old := c.lm.RunningHandles(c.handles[:0], name)
	c.handles = old
	old = slices.DeleteFunc(old, func(h *ilm.Handle) bool { return h.Version == target })
	st := c.upgrades[name]
	if st != nil && st.target != target {
		// Repinned mid-upgrade: restart the rollout toward the new target.
		st = nil
	}
	if st == nil {
		if len(old) == 0 {
			delete(c.upgrades, name)
			return
		}
		st = &upgradeState{target: target}
		c.upgrades[name] = st
		c.cl.Decide(trace.Decision{Kind: trace.UpgradeStart, Program: name, Version: target, Count: len(old)})
	}
	if len(old) == 0 {
		c.cl.Decide(trace.Decision{Kind: trace.UpgradeDone, Program: name, Version: target})
		delete(c.upgrades, name)
		return
	}
	// Drop batch members that finished or already moved to the target.
	st.batch = slices.DeleteFunc(st.batch, func(id uint64) bool {
		return !slices.ContainsFunc(old, func(h *ilm.Handle) bool { return h.ID == id })
	})
	if len(st.batch) == 0 {
		// Form the next batch: the oldest still-running old-version
		// instances, given the drain deadline to finish naturally.
		n := min(c.desired.Reconcile.EffectiveBatch(), len(old))
		for _, h := range old[:n] {
			st.batch = append(st.batch, h.ID)
		}
		st.deadline = now + c.desired.Reconcile.EffectiveDrainDeadline()
		c.cl.Decide(trace.Decision{Kind: trace.UpgradeBatch, Program: name, Version: target, Count: len(st.batch), Wait: st.deadline - now})
		if now < st.deadline {
			return
		}
	}
	if now >= st.deadline {
		// Stragglers: restart them onto the pinned version now, in launch
		// order (the batch's order too).
		for _, h := range old {
			if slices.Contains(st.batch, h.ID) && c.lm.RequeueForUpgrade(h) {
				c.cl.Decide(trace.Decision{Kind: trace.UpgradeRequeue, Program: name, Version: target, Session: h.ID})
			}
		}
		st.batch = st.batch[:0]
	}
}

// prewarm starts uploading the target version's artifact to every serving
// replica that lacks it, so upgrade relaunches are warm. The uploads run
// one after another in replica-ID order, off every serving path: each
// lands on a timer at now plus its own and its predecessors' costs, admits
// the artifact and records the prewarm. prewarm reports when the last
// lands (now if none is needed), and ok false when the target is not
// registered.
func (c *Controller) prewarm(name, target string, now time.Duration) (until time.Duration, ok bool) {
	key, size, err := c.lm.ArtifactFor(name + "@" + target)
	if err != nil {
		return 0, false
	}
	until = now
	for _, r := range c.cl.Replicas() {
		if !r.Active() || r.Health() != cluster.HealthHealthy || r.Ctl.HasArtifact(key) {
			continue
		}
		until += r.Ctl.ArtifactCost(size)
		c.clock.After(until-now, func() {
			r.Ctl.AdmitArtifact(key, size, true)
			c.cl.Decide(trace.Decision{Kind: trace.Prewarm, Program: name, Version: target, Replica: r.ID})
		})
	}
	return until, true
}

// --- Desired-vs-actual status (the GET /v1/fleet surface) ---------------

// PoolStatus is one pool's desired-vs-actual view.
type PoolStatus struct {
	Name     string `json:"name"`
	Desired  int    `json:"desired"`
	Serving  int    `json:"serving"`
	Draining int    `json:"draining"`
	Built    int    `json:"built"`
}

// PinStatus is one program pin's rollout view.
type PinStatus struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	// Pinned reports whether the registry pin is applied (false while the
	// target version is not yet registered).
	Pinned bool `json:"pinned"`
	// Live maps running versions to instance counts (sorted rendering via
	// LiveVersions).
	Live map[string]int `json:"live,omitempty"`
	// Upgrading reports an upgrade in flight: its prewarm or its rollout.
	Upgrading bool `json:"upgrading"`
}

// Status is the desired-vs-actual reconciliation report.
type Status struct {
	Generation int          `json:"generation"`
	Converged  bool         `json:"converged"`
	LastTick   string       `json:"last_tick"`
	Placement  string       `json:"placement"`
	Pools      []PoolStatus `json:"pools"`
	Programs   []PinStatus  `json:"programs"`

	// Fleet-op and upgrade counts, whoever made the op: folds of the
	// cluster's activate, drain and prewarm records.
	Activations     int `json:"activations"`
	Drains          int `json:"drains"`
	Prewarms        int `json:"prewarms"`
	UpgradeRequeues int `json:"upgrade_requeues"`
}

// Status reports desired vs actual: per-pool serving counts, per-pin
// rollout state, and whether the fleet has converged (every pool at its
// desired count, every pin applied, no upgrade in flight).
func (c *Controller) Status() Status {
	st := Status{
		Generation:      c.generation,
		Converged:       true,
		Placement:       c.desired.Placement,
		Activations:     c.cl.Activations,
		Drains:          c.cl.DrainStart,
		Prewarms:        c.cl.Prewarms,
		UpgradeRequeues: c.lm.UpgradeRequeues,
	}
	if c.lastTick > 0 {
		st.LastTick = c.lastTick.String()
	}
	for _, pr := range c.pools {
		ps := PoolStatus{Name: pr.Name, Desired: pr.Desired, Built: pr.End - pr.Start}
		for _, r := range c.poolReplicas(pr) {
			switch {
			case r.Active() && r.Draining():
				ps.Draining++
			case r.Serving():
				ps.Serving++
			}
		}
		if c.desired.Scaler == nil && (ps.Serving != ps.Desired || ps.Draining > 0) {
			st.Converged = false
		}
		st.Pools = append(st.Pools, ps)
	}
	for _, pin := range c.desired.Programs {
		cur, ok := c.lm.Pinned(pin.Name)
		ps := PinStatus{Name: pin.Name, Version: pin.Version, Pinned: ok && cur == pin.Version}
		for _, h := range c.lm.RunningHandles(nil, pin.Name) {
			if ps.Live == nil {
				ps.Live = make(map[string]int)
			}
			ps.Live[h.Version]++
		}
		_, ps.Upgrading = c.upgrades[pin.Name]
		if !ps.Pinned || ps.Upgrading {
			st.Converged = false
		}
		st.Programs = append(st.Programs, ps)
	}
	return st
}

// LiveVersions renders a pin's live map deterministically.
func (p PinStatus) LiveVersions() string {
	if len(p.Live) == 0 {
		return "-"
	}
	vs := make([]string, 0, len(p.Live))
	for v := range p.Live {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%s:%d", v, p.Live[v])
	}
	return strings.Join(parts, " ")
}
