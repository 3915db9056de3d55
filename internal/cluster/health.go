package cluster

import (
	"time"

	"pie/api"
	"pie/internal/trace"
)

// Replica health: a monitor on the cluster tick (tick.go) drives
// each replica through healthy → suspect → dead → replaced. Two failure
// signals feed it:
//
//   - Heartbeats. A crash-stopped replica goes silent; the monitor dates
//     the silence and escalates through SuspectAfter/DeadAfter.
//   - Progress. A hung replica keeps heartbeating but stops draining its
//     queues: outstanding inference work with no kernel completions. The
//     watchdog tolerates stalls up to HangTimeout, dated from the instant
//     the executing kernel was due at its modeled cost, so a long kernel on
//     a healthy (or merely slow) replica is never a stall.
//
// Death is handled, not just observed: every in-flight instance on the
// dead replica is aborted with api.ErrReplicaLost (waiters unpark typed
// instead of hanging; launches with a retry policy requeue onto
// survivors), its KV exports are declared lost, and, if it was active, a
// cold spare is activated as the replacement — which then pays cold-start
// placement exactly like any fresh replica.

// HealthState is a replica's position in the failure state machine.
type HealthState int

const (
	// HealthHealthy accepts placements and serves traffic (the zero value:
	// clusters without health checking stay healthy forever).
	HealthHealthy HealthState = iota
	// HealthSuspect missed heartbeats or stalled recently: avoided by
	// placement (used only when no healthy replica exists) but not yet
	// condemned. Recovers to healthy when signals resume.
	HealthSuspect
	// HealthDead is terminal: the replica is out of rotation, its work
	// aborted and exports dropped. Dead replicas never reactivate.
	HealthDead
)

func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthDead:
		return "dead"
	}
	return "unknown"
}

// HealthConfig tunes the replica health monitor. The zero value disables
// it (every replica is immortal, the pre-fault-layer behavior).
type HealthConfig struct {
	Enabled bool
	// Interval is the monitor tick period (default 5ms).
	Interval time.Duration
	// SuspectAfter marks a silent replica suspect (default 10ms).
	SuspectAfter time.Duration
	// DeadAfter declares a silent replica dead (default 25ms).
	DeadAfter time.Duration
	// HangTimeout declares a heartbeating replica dead when it has had
	// outstanding inference work but no kernel completion for this long
	// past the instant its executing kernel was due (default 250ms). A
	// kernel's own length does not count against it.
	HangTimeout time.Duration
}

func (h HealthConfig) withDefaults() HealthConfig {
	if h.Interval <= 0 {
		h.Interval = 5 * time.Millisecond
	}
	if h.SuspectAfter <= 0 {
		h.SuspectAfter = 10 * time.Millisecond
	}
	if h.DeadAfter <= h.SuspectAfter {
		h.DeadAfter = 25 * time.Millisecond
		if h.DeadAfter <= h.SuspectAfter {
			h.DeadAfter = h.SuspectAfter * 2
		}
	}
	if h.HangTimeout <= 0 {
		h.HangTimeout = 250 * time.Millisecond
	}
	return h
}

// EnableHealth puts the health monitor on the cluster tick. Call before
// Start.
func (c *Cluster) EnableHealth(cfg HealthConfig) {
	cfg.Enabled = true
	c.health = cfg.withDefaults()
	now := c.now()
	for _, r := range c.replicas {
		r.progressAt = now
	}
	c.policies[tickHealth] = policy{period: c.health.Interval, run: c.checkHealth}
}

// HealthEnabled reports whether the monitor is running.
func (c *Cluster) HealthEnabled() bool { return c.health.Enabled }

// checkHealth runs one monitor pass over every replica in ID order. It runs
// on the cluster tick and never blocks: declareDead only aborts, drops and
// activates.
func (c *Cluster) checkHealth(now time.Duration) {
	for i, r := range c.replicas {
		if r.health == HealthDead {
			continue
		}
		var silentSince, deadAfter, suspectAfter time.Duration
		if r.crashed {
			// Heartbeats stopped at the crash instant.
			silentSince = r.crashedAt
			suspectAfter = c.health.SuspectAfter
			deadAfter = c.health.DeadAfter
		} else {
			// Heartbeats fine; check queue progress. Progress means either
			// nothing is owed (idle replica) or kernels completed since the
			// last pass.
			if l := &c.load[i]; l.outstanding == 0 || l.kernels != c.checked[i].kernels {
				r.progressAt = now
				if r.health == HealthSuspect {
					r.health = HealthHealthy // stall cleared: back in rotation
				}
				continue
			}
			// A kernel still executing is progress until it is due; a frozen
			// device's due instant stays in the past.
			silentSince = max(r.progressAt, r.Backend.Device.Due())
			suspectAfter = c.health.HangTimeout / 2
			deadAfter = c.health.HangTimeout
		}
		age := now - silentSince
		switch {
		case age >= deadAfter:
			c.declareDead(r, age)
		case age >= suspectAfter && r.health == HealthHealthy:
			r.health = HealthSuspect
			c.Decide(trace.Decision{Kind: trace.Suspect, Replica: r.ID})
		}
	}
	copy(c.checked, c.load)
}

// declareDead executes the death protocol for one replica: out of
// rotation, in-flight work aborted typed, exports declared lost, and, for a
// replica that was active, a cold spare activated as the replacement.
func (c *Cluster) declareDead(r *Replica, detect time.Duration) {
	replace := r.active
	r.health = HealthDead
	c.markInactive(r)
	// A hung replica's device is already frozen; freezing a slow or
	// healthy-looking one on the way out keeps it from completing work
	// after the cluster has given up on it.
	r.Backend.Device.Fail()
	// Unwind every in-flight inferlet with a typed error. Launches
	// carrying a retry policy requeue onto surviving replicas; the rest
	// surface api.ErrReplicaLost to their waiters instead of hanging.
	r.Evacuations += r.Ctl.AbortAllInstances(api.ErrReplicaLost)
	// The batches the device held will never complete: failing them drops
	// their page pins, so the pages the aborted instances released are
	// freed and the dead pool reads empty.
	r.Backend.Fail(api.ErrReplicaLost)
	exports, pages := r.Ctl.DropExports()
	// Replacement: bring in the lowest-ID cold spare. It arrives with an
	// empty artifact cache and empty pools, so its first placements pay
	// the cold-start pipeline — the same economics as a scale-up. A dead
	// spare took no work, so nothing replaces it.
	replacement := -1
	for _, s := range c.replicas {
		if replace && !s.active && c.Activate(s) {
			replacement = s.ID
			break
		}
	}
	c.Decide(trace.Decision{Kind: trace.Dead, Replica: r.ID, Wait: detect, Dest: replacement, Count: exports, Pages: pages})
}
