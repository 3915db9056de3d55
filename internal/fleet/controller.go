package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pie/internal/cluster"
	"pie/internal/ilm"
	"pie/internal/sim"
	"pie/internal/trace"
)

// Controller is the reconciling fleet controller: a daemon that diffs the
// manifest's desired state against the live cluster each tick and
// converges it — completing two-phase drains, growing or draining pools
// toward their desired counts, applying program pins, and rolling
// old-version instances onto newly pinned versions in bounded batches.
//
// Everything it does is deterministic on the virtual clock: replicas are
// visited in ID order, handles in launch order, pools and pins in
// manifest order, so same-seed runs produce identical decision records.
// The controller's own decisions go to the cluster's OnDecision hook beside
// the cluster's; its pool resizes are the fleet-op records its Activate and
// BeginDrain calls make.
type Controller struct {
	clock *sim.Clock
	cl    *cluster.Cluster
	lm    *ilm.ILM

	desired    *Manifest
	generation int
	lastTick   time.Duration
	ticked     bool

	// upgrades tracks one in-flight rolling upgrade per program.
	upgrades map[string]*upgradeState

	// Stats.
	Activations int // replicas activated (or un-drained) toward desired counts
	Drains      int // pool drains initiated toward desired counts
	Prewarms    int // upgrade artifacts uploaded ahead of cutover
	PinRetries  int // pin applications deferred (target version not registered yet)
}

// upgradeState is one program's rolling upgrade in flight.
type upgradeState struct {
	target   string        // canonical pinned version being rolled to
	batch    []uint64      // handle IDs draining in the current batch
	deadline time.Duration // when stragglers in the batch are requeued
}

// NewController builds a controller over a validated manifest. Call
// AlignInitial before traffic, then Start to run the reconcile daemon.
func NewController(clock *sim.Clock, cl *cluster.Cluster, lm *ilm.ILM, m *Manifest) *Controller {
	return &Controller{
		clock:    clock,
		cl:       cl,
		lm:       lm,
		desired:  m.Clone(),
		upgrades: make(map[string]*upgradeState),
	}
}

// Desired returns the manifest currently being reconciled toward.
func (c *Controller) Desired() *Manifest { return c.desired }

// Generation reports how many manifests have been applied (0 = the boot
// manifest).
func (c *Controller) Generation() int { return c.generation }

// Apply replaces desired state by hot reload: the next manifest is
// validated, checked compatible (pool counts, pins, placement, and
// reconcile tuning may change live; topology may not — typed
// ErrImmutable), and snapshotted. Convergence happens on subsequent
// ticks.
func (c *Controller) Apply(next *Manifest) error {
	if err := next.Validate(); err != nil {
		return err
	}
	if err := c.desired.CheckCompatible(next); err != nil {
		return err
	}
	c.desired = next.Clone()
	c.generation++
	c.cl.SetPlacement(next.PlacementPolicy())
	c.decide(trace.Decision{Kind: trace.Apply, Count: c.generation})
	return nil
}

// AlignInitial aligns the boot-time active set with the manifest's pools.
// The cluster activates the first N replica IDs at construction; with
// pools holding headroom (max > count), the desired set is per-pool — eg
// pools [4/6, 2/2] want {0..3, 6..7} active, not {0..5}. Runs once,
// before any traffic, so idle-deactivation is safe.
func (c *Controller) AlignInitial() {
	for _, pr := range c.desired.PoolRanges() {
		for _, r := range c.poolReplicas(pr) {
			if r.ID < pr.Start+pr.Desired {
				c.cl.Activate(r)
			} else {
				c.cl.Deactivate(r)
			}
		}
	}
}

// Start runs the reconcile daemon on the virtual clock.
func (c *Controller) Start() {
	c.clock.GoDaemon("fleet:controller", func() {
		for {
			c.clock.Sleep(c.desired.Reconcile.EffectiveInterval())
			c.Tick()
		}
	})
}

// Tick runs one reconcile pass: finish drains whose replicas went idle,
// converge pool counts (unless the SLO scaler owns them), then reconcile
// program pins and advance rolling upgrades. Must run in a sim process.
func (c *Controller) Tick() {
	c.lastTick = c.clock.Now()
	c.ticked = true
	c.cl.CompleteDrains()
	if c.desired.Scaler == nil {
		c.convergePools()
	}
	c.reconcilePins()
}

// poolReplicas returns the pool's replicas in ID order.
func (c *Controller) poolReplicas(pr PoolRange) []*cluster.Replica {
	all := c.cl.Replicas()
	end := pr.End
	if end > len(all) {
		end = len(all)
	}
	if pr.Start >= end {
		return nil
	}
	return all[pr.Start:end]
}

// convergePools moves each pool's serving count toward desired: grow by
// un-draining, then activating, the lowest-ID eligible replicas; shrink
// by draining the highest-ID serving ones (two-phase — CompleteDrains
// retires them once idle, migrating their KV exports first).
func (c *Controller) convergePools() {
	for _, pr := range c.desired.PoolRanges() {
		rs := c.poolReplicas(pr)
		serving := 0
		for _, r := range rs {
			if r.Active() && !r.Draining() && r.Health() == cluster.HealthHealthy {
				serving++
			}
		}
		switch {
		case serving < pr.Desired:
			need := pr.Desired - serving
			// First cancel drains (cheapest — the replica never left),
			// then wake inactive replicas, lowest ID first.
			for pass := 0; pass < 2 && need > 0; pass++ {
				for _, r := range rs {
					if need == 0 {
						break
					}
					wantDraining := pass == 0
					if r.Active() != wantDraining || r.Draining() != wantDraining {
						continue
					}
					if c.cl.Activate(r) {
						c.Activations++
						need--
					}
				}
			}
		case serving > pr.Desired:
			excess := serving - pr.Desired
			for i := len(rs) - 1; i >= 0 && excess > 0; i-- {
				r := rs[i]
				if !r.Active() || r.Draining() || r.Health() != cluster.HealthHealthy {
					continue
				}
				if c.cl.BeginDrain(r) {
					c.Drains++
					excess--
				}
			}
		}
	}
}

// reconcilePins applies each manifest pin to the registry and rolls any
// running old-version instances onto the pinned version: prewarm the
// target artifact on serving replicas BEFORE the cutover (so launches
// resolving the new pin — and upgrade relaunches — never pay a cold
// start), then drain old instances in bounded batches (letting them
// finish naturally inside the batch deadline), and abort-and-requeue
// stragglers past it.
func (c *Controller) reconcilePins() {
	for _, pin := range c.desired.Programs {
		target, err := ilm.CanonicalVersion(pin.Version)
		if err != nil {
			continue // Validate already rejected this; defensive
		}
		if cur, ok := c.lm.Pinned(pin.Name); !ok || cur != target {
			// Warm first, cut over second: while the uploads run (in this
			// daemon's virtual time), new launches still resolve the old
			// pin, so no request lands cold on the new version. Only a
			// version CHANGE prewarms — the boot install applies
			// immediately, before bare names can float to a newer
			// registered version.
			if ok && c.desired.Reconcile.EffectivePrewarm() {
				c.prewarm(pin.Name, target)
			}
			if err := c.lm.SetPin(pin.Name, target); err != nil {
				// Target not registered yet: keep trying each tick.
				c.PinRetries++
				continue
			}
			c.decide(trace.Decision{Kind: trace.Pin, Program: pin.Name, Version: target})
		}
		c.advanceUpgrade(pin.Name, target)
	}
}

// advanceUpgrade drives one program's rollout toward the pinned version.
func (c *Controller) advanceUpgrade(name, target string) {
	old := make([]*ilm.Handle, 0)
	byID := make(map[uint64]*ilm.Handle)
	for _, h := range c.lm.RunningHandles(name) {
		if h.Version != target {
			old = append(old, h)
			byID[h.ID] = h
		}
	}
	st := c.upgrades[name]
	if st != nil && st.target != target {
		// Repinned mid-roll: restart the rollout toward the new target.
		st = nil
	}
	if st == nil {
		if len(old) == 0 {
			delete(c.upgrades, name)
			return
		}
		st = &upgradeState{target: target}
		c.upgrades[name] = st
		c.decide(trace.Decision{Kind: trace.UpgradeStart, Program: name, Version: target, Count: len(old)})
	}
	if len(old) == 0 {
		c.decide(trace.Decision{Kind: trace.UpgradeDone, Program: name, Version: target})
		delete(c.upgrades, name)
		return
	}
	// Drop batch members that finished or already moved to the target.
	live := st.batch[:0]
	for _, id := range st.batch {
		if _, ok := byID[id]; ok {
			live = append(live, id)
		}
	}
	st.batch = live
	if len(st.batch) == 0 {
		// Form the next batch: the oldest still-running old-version
		// instances, given the drain deadline to finish naturally.
		n := c.desired.Reconcile.EffectiveBatch()
		if n > len(old) {
			n = len(old)
		}
		for _, h := range old[:n] {
			st.batch = append(st.batch, h.ID)
		}
		st.deadline = c.clock.Now() + c.desired.Reconcile.EffectiveDrainDeadline()
		c.decide(trace.Decision{Kind: trace.UpgradeBatch, Program: name, Version: target, Count: len(st.batch), Wait: st.deadline - c.clock.Now()})
		if c.clock.Now() < st.deadline {
			return
		}
	}
	if c.clock.Now() >= st.deadline {
		// Stragglers: restart them onto the pinned version now.
		for _, id := range st.batch {
			if h, ok := byID[id]; ok && c.lm.RequeueForUpgrade(h) {
				c.decide(trace.Decision{Kind: trace.UpgradeRequeue, Program: name, Version: target, Handle: id})
			}
		}
		st.batch = st.batch[:0]
	}
}

// prewarm uploads the target version's artifact to every serving replica
// that lacks it, so upgrade relaunches are warm. The upload cost is paid
// in the controller's own daemon (serialized, replica ID order) — it
// never blocks serving traffic.
func (c *Controller) prewarm(name, target string) {
	key, size, err := c.lm.ArtifactFor(name + "@" + target)
	if err != nil {
		return
	}
	for _, r := range c.cl.Replicas() {
		if !r.Active() || r.Health() != cluster.HealthHealthy || r.Ctl.HasArtifact(key) {
			continue
		}
		c.clock.Sleep(r.Ctl.ArtifactCost(size))
		r.Ctl.AdmitArtifact(key, size, true)
		c.Prewarms++
		c.decide(trace.Decision{Kind: trace.Prewarm, Program: name, Version: target, Replica: r.ID})
	}
}

// decide stamps d with the virtual time and hands it to the cluster's
// OnDecision hook, if one is set.
func (c *Controller) decide(d trace.Decision) {
	if c.cl.OnDecision != nil {
		d.T = c.clock.Now()
		c.cl.OnDecision(d)
	}
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
	// Upgrading reports a rollout in flight.
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
		Activations:     c.Activations,
		Drains:          c.Drains,
		Prewarms:        c.Prewarms,
		UpgradeRequeues: c.lm.UpgradeRequeues,
	}
	if c.ticked {
		st.LastTick = c.lastTick.String()
	}
	for _, pr := range c.desired.PoolRanges() {
		ps := PoolStatus{Name: pr.Name, Desired: pr.Desired, Built: pr.End - pr.Start}
		for _, r := range c.poolReplicas(pr) {
			switch {
			case r.Active() && r.Draining():
				ps.Draining++
			case r.Active() && r.Health() == cluster.HealthHealthy:
				ps.Serving++
			}
		}
		if c.desired.Scaler == nil && (ps.Serving != ps.Desired || ps.Draining > 0) {
			st.Converged = false
		}
		st.Pools = append(st.Pools, ps)
	}
	for _, pin := range c.desired.Programs {
		target, err := ilm.CanonicalVersion(pin.Version)
		if err != nil {
			continue
		}
		cur, ok := c.lm.Pinned(pin.Name)
		ps := PinStatus{Name: pin.Name, Version: target, Pinned: ok && cur == target}
		for _, h := range c.lm.RunningHandles(pin.Name) {
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
