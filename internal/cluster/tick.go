package cluster

import "time"

// The cluster tick: one clock.Every, at the shortest period among the
// enabled policies, runs health, the role balancer, the fleet controller's
// reconcile pass and the scaler in that order, each on the first tick at or
// after its due time (advancing it by its period, so none drifts), and
// completes idle drains right before the first due one of the last two.
// Load comes from one snapshot the tick fills first; replica state is read
// live, so a replica health declares dead is not seen by the policies after.

// replicaLoad is one replica's load as a tick read it.
type replicaLoad struct {
	kernels, forwards, decodes, prefills int
	busy                                 time.Duration
	outstanding, prefillTokens           int
	kvInUse, kvCap, instances            int
}

// saturation folds the replica's three load signals into a single fraction:
// the binding constraint governs (a full KV pool saturates a replica whose
// queue is short, and vice versa).
func (l *replicaLoad) saturation() float64 {
	kv := 0.0
	if l.kvCap > 0 {
		kv = float64(l.kvInUse) / float64(l.kvCap)
	}
	return max(kv, float64(l.outstanding)/queueRef, float64(l.prefillTokens)/prefillRef)
}

// The tick's policies, in the order a tick runs them.
const (
	tickHealth = iota
	tickBalance
	tickReconcile
	tickScale
)

// policy is one periodic policy on the tick; run is nil while it is off.
type policy struct {
	period, due time.Duration
	run         func(now time.Duration)
}

// EnableReconcile puts a fleet controller's pass, which must not block, on
// the cluster tick every period. Call before Start.
func (c *Cluster) EnableReconcile(period time.Duration, fn func(now time.Duration)) {
	c.policies[tickReconcile] = policy{period: period, run: fn}
}

// Start arms the cluster tick at the shortest period among the enabled
// policies, or nothing when none is enabled. Call it once, after the Enable
// calls and before Engine.Run.
func (c *Cluster) Start() {
	var period time.Duration
	for i := range c.policies {
		if p := &c.policies[i]; p.run != nil {
			p.due = c.now() + p.period
			if period == 0 || p.period < period {
				period = p.period
			}
		}
	}
	if period > 0 {
		c.clock.Every(period, func() { c.tick(c.clock.Now()) })
	}
}

// tick fills the snapshot in replica-ID order, then runs the due policies.
// It is a timer's callback and never blocks.
func (c *Cluster) tick(now time.Duration) {
	for i, r := range c.replicas {
		s, l := r.Ctl.Scheduler(), &c.load[i]
		l.kernels, l.forwards, l.decodes, l.prefills = r.Backend.Device.Kernels(), s.Forwards, s.DecodeCalls, s.PrefillCalls
		l.busy, l.outstanding, l.prefillTokens = r.Backend.Device.BusyTime(), r.Ctl.OutstandingCalls(), r.Ctl.OutstandingPrefillTokens()
		l.kvInUse, l.kvCap = r.Ctl.KVLoad()
		l.instances = r.Ctl.Instances()
	}
	drained := false
	for i := range c.policies {
		if p := &c.policies[i]; p.run != nil && now >= p.due {
			if i >= tickReconcile && !drained {
				c.CompleteDrains()
				drained = true
			}
			p.due += p.period
			p.run(now)
		}
	}
}
