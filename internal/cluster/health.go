package cluster

import (
	"time"

	"pie/api"
	"pie/internal/trace"
)

// Replica health: a monitor daemon ticks on the virtual clock and drives
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
// survivors), its KV exports are declared lost, and a cold spare is
// activated as the replacement — which then pays cold-start placement
// exactly like any fresh replica.

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

// EnableHealth installs the health monitor. Call before Engine.Run.
func (c *Cluster) EnableHealth(cfg HealthConfig) {
	cfg.Enabled = true
	c.health = cfg.withDefaults()
	now := c.clock.Now()
	for _, r := range c.replicas {
		r.progressAt = now
	}
	c.clock.GoDaemon("cluster:health", func() {
		for {
			c.clock.Sleep(c.health.Interval)
			c.checkHealth()
		}
	})
}

// HealthEnabled reports whether the monitor is running.
func (c *Cluster) HealthEnabled() bool { return c.health.Enabled }

// checkHealth runs one monitor tick over every replica in ID order.
func (c *Cluster) checkHealth() {
	now := c.clock.Now()
	for _, r := range c.replicas {
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
			// last tick.
			k := r.Backend.Device.Kernels()
			if r.Ctl.OutstandingCalls() == 0 || k != r.lastKernels {
				r.lastKernels = k
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
			c.Suspects++
			if c.OnDecision != nil {
				c.OnDecision(trace.Decision{T: now, Kind: trace.Suspect, Replica: r.ID})
			}
		}
	}
}

// declareDead executes the death protocol for one replica: out of
// rotation, in-flight work aborted typed, exports declared lost, and a
// cold spare activated as the replacement.
func (c *Cluster) declareDead(r *Replica, detect time.Duration) {
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
	exports, pages := r.Ctl.DropExports()
	c.ExportsLost += exports
	c.PagesLost += pages
	c.ReplicasLost++
	c.DetectTime += detect
	// Replacement: bring in the lowest-ID cold spare. It arrives with an
	// empty artifact cache and empty pools, so its first placements pay
	// the cold-start pipeline — the same economics as a scale-up.
	replacement := -1
	for _, s := range c.replicas {
		if !s.active && c.Activate(s) {
			c.Replacements++
			replacement = s.ID
			break
		}
	}
	if c.OnDecision != nil {
		c.OnDecision(trace.Decision{T: c.now(), Kind: trace.Dead, Replica: r.ID, Wait: detect, Dest: replacement})
	}
}
