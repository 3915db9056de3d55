package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"pie/api"
	"pie/internal/sim"
)

// Fault injection: a deterministic, seeded fault plan the cluster replays
// against its replicas. Three replica-level fault kinds plus a transient
// per-launch failure rate; everything is driven by the virtual clock and a
// splitmix64 stream, so the same plan and seed reproduce byte-identical
// runs — the property every chaos test in this repo asserts.

// FaultKind names one replica-level fault.
type FaultKind int

const (
	// FaultCrash crash-stops a replica: its device dies mid-kernel and its
	// heartbeats stop, so the health monitor sees it quickly (DeadAfter).
	FaultCrash FaultKind = iota
	// FaultHang freezes a replica's device without failing its heartbeats:
	// queues stop draining while the replica still looks alive, so only
	// the progress watchdog (HangTimeout) catches it.
	FaultHang
	// FaultSlow degrades a replica: every kernel costs Factor times its
	// modeled price. The replica stays healthy — slow is a gray failure
	// the load-aware placement routes around, not a death.
	FaultSlow
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultHang:
		return "hang"
	case FaultSlow:
		return "slow"
	}
	return "unknown"
}

// FaultEvent schedules one replica fault at a virtual instant.
type FaultEvent struct {
	At      time.Duration
	Replica int
	Kind    FaultKind
	Factor  float64 // FaultSlow: kernel cost multiplier (default 4)
}

func (e FaultEvent) String() string {
	s := fmt.Sprintf("%s:%d@%v", e.Kind, e.Replica, e.At)
	if e.Kind == FaultSlow {
		s += fmt.Sprintf("*%g", e.Factor)
	}
	return s
}

// FaultPlan is a deterministic failure schedule. The zero value injects
// nothing.
type FaultPlan struct {
	// Events are replica faults applied at their virtual times.
	Events []FaultEvent
	// CallFailRate injects a transient, retryable failure
	// (api.ErrTransientFault) into launch admission with this probability.
	CallFailRate float64
	// Seed drives the transient-failure stream (and nothing else: Events
	// are explicit). Zero is a valid seed.
	Seed uint64
}

// Empty reports whether the plan injects nothing.
func (p FaultPlan) Empty() bool { return len(p.Events) == 0 && p.CallFailRate <= 0 }

// String renders the plan in ParseFaultPlan syntax.
func (p FaultPlan) String() string {
	parts := make([]string, 0, len(p.Events))
	for _, e := range p.Events {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, ",")
}

// ParseFaultPlan parses a compact fault-plan spec: comma-separated events
// of the form "kind:replica@time" with an optional "*factor" suffix for
// slow events, e.g. "crash:1@200ms,hang:2@300ms,slow:3@100ms*4". An empty
// spec is an empty plan.
func ParseFaultPlan(spec string) (FaultPlan, error) {
	var plan FaultPlan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return plan, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(part, ":")
		if !ok {
			return plan, fmt.Errorf("cluster: fault event %q: want kind:replica@time", part)
		}
		var kind FaultKind
		switch strings.ToLower(kindStr) {
		case "crash":
			kind = FaultCrash
		case "hang":
			kind = FaultHang
		case "slow":
			kind = FaultSlow
		default:
			return plan, fmt.Errorf("cluster: fault event %q: unknown kind %q", part, kindStr)
		}
		repStr, rest, ok := strings.Cut(rest, "@")
		if !ok {
			return plan, fmt.Errorf("cluster: fault event %q: missing @time", part)
		}
		replica, err := strconv.Atoi(repStr)
		if err != nil || replica < 0 {
			return plan, fmt.Errorf("cluster: fault event %q: bad replica %q", part, repStr)
		}
		factor := 4.0
		if atStr, facStr, has := strings.Cut(rest, "*"); has {
			rest = atStr
			factor, err = strconv.ParseFloat(facStr, 64)
			if err != nil || factor <= 0 {
				return plan, fmt.Errorf("cluster: fault event %q: bad factor %q", part, facStr)
			}
		}
		at, err := time.ParseDuration(rest)
		if err != nil || at < 0 {
			return plan, fmt.Errorf("cluster: fault event %q: bad time %q", part, rest)
		}
		plan.Events = append(plan.Events, FaultEvent{At: at, Replica: replica, Kind: kind, Factor: factor})
	}
	return plan, nil
}

// RandomFaultPlan derives a seeded random kill/hang/slow schedule for
// chaos tests: n events over (0, window], uniformly mixing crashes, hangs,
// and slowdowns across replicas 1..replicas-1. Replica 0 is never faulted,
// so at least one survivor can absorb requeued work and the workload can
// always finish. The same seed yields the same plan.
func RandomFaultPlan(seed uint64, replicas, n int, window time.Duration) FaultPlan {
	plan := FaultPlan{Seed: seed}
	if replicas < 2 || n <= 0 || window <= 0 {
		return plan
	}
	rng := sim.NewRNG(seed ^ 0xFA17)
	for i := 0; i < n; i++ {
		ev := FaultEvent{
			At:      time.Duration(rng.Range(1, int(window/time.Millisecond))) * time.Millisecond,
			Replica: rng.Range(1, replicas-1),
			Factor:  2 + 3*rng.Float64(),
		}
		switch rng.Intn(3) {
		case 0:
			ev.Kind = FaultCrash
		case 1:
			ev.Kind = FaultHang
		default:
			ev.Kind = FaultSlow
		}
		plan.Events = append(plan.Events, ev)
	}
	sort.SliceStable(plan.Events, func(i, j int) bool { return plan.Events[i].At < plan.Events[j].At })
	return plan
}

// InjectFaults installs a fault plan on the cluster: each replica event is
// a clock timer due at its virtual instant (events due together apply in
// plan order), and launch admission consults the transient-failure stream.
// Call before Engine.Run. A plan referencing replicas outside the set is
// rejected.
func (c *Cluster) InjectFaults(plan FaultPlan) error {
	for _, ev := range plan.Events {
		if ev.Replica < 0 || ev.Replica >= len(c.replicas) {
			return fmt.Errorf("cluster: fault event %v targets replica %d of %d", ev, ev.Replica, len(c.replicas))
		}
	}
	c.faults = plan
	if plan.CallFailRate > 0 {
		c.faultRNG = sim.NewRNG(plan.Seed ^ 0x7FA4)
	}
	for _, ev := range plan.Events {
		c.clock.After(ev.At-c.clock.Now(), func() { c.applyFault(ev) })
	}
	return nil
}

// applyFault injects one replica fault now.
func (c *Cluster) applyFault(ev FaultEvent) {
	r := c.replicas[ev.Replica]
	switch ev.Kind {
	case FaultCrash:
		// Device dies and heartbeats stop: the health monitor dates the
		// silence from this instant.
		r.crashed = true
		r.crashedAt = c.clock.Now()
		r.Backend.Device.Fail()
	case FaultHang:
		// Device freezes but the replica keeps answering heartbeats; only
		// the progress watchdog can tell.
		r.Backend.Device.Fail()
	case FaultSlow:
		factor := ev.Factor
		if factor <= 0 {
			factor = 4
		}
		r.slowdown = factor
		r.Backend.Device.SetSlowdown(factor)
	}
	c.FaultsInjected++
}

// LaunchFault consults the transient-failure stream for one launch
// attempt. The ILM calls it (via the optional ilm.FaultSource interface)
// once per attempt, in deterministic launch order, so the stream replays
// identically under the same seed. Returns api.ErrTransientFault on an
// injected failure.
func (c *Cluster) LaunchFault() error {
	if c.faultRNG == nil || c.faults.CallFailRate <= 0 {
		return nil
	}
	if c.faultRNG.Float64() < c.faults.CallFailRate {
		c.TransientFaults++
		return fmt.Errorf("%w: injected launch failure", api.ErrTransientFault)
	}
	return nil
}
