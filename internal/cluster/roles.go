package cluster

import (
	"fmt"
	"math"
	"strings"
	"time"

	"pie/internal/trace"
)

// Prefill/decode disaggregation (the dominant production serving
// topology): replicas carry a Role, new launches route to prefill-eligible
// capacity, and on first-token completion a session's KV pages hand off to
// a decode replica over the modeled interconnect (handoff.go). A unified
// replica serves both phases — the zero value, so role-less clusters
// behave exactly as before.
// The configured split is where a fleet starts: the role balancer
// (balanceRoles) moves replicas between prefill and decode as load asks.

// Role is a replica's serving phase assignment.
type Role int

const (
	// RoleUnified serves both prefill and decode (the default).
	RoleUnified Role = iota
	// RolePrefill serves new launches through their first token, then
	// hands the session off to decode capacity.
	RolePrefill
	// RoleDecode receives handed-off sessions and serves decode steps;
	// new launches never place here while prefill capacity lives.
	RoleDecode
)

func (r Role) String() string {
	switch r {
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	}
	return "unified"
}

// ParseRole resolves a role name (CLI flags, fleet specs).
func ParseRole(s string) (Role, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "unified", "both":
		return RoleUnified, nil
	case "prefill", "p":
		return RolePrefill, nil
	case "decode", "d":
		return RoleDecode, nil
	}
	return 0, fmt.Errorf("cluster: unknown replica role %q", s)
}

// prefillEligible reports whether new launches may place on the replica.
func (r *Replica) prefillEligible() bool { return r.Role != RoleDecode }

// decodeEligible reports whether handed-off sessions may land on the
// replica.
func (r *Replica) decodeEligible() bool { return r.Role != RolePrefill }

// RoleSpec assigns a role to a run of replicas in ID order (mirrors
// ReplicaVariant's Count convention).
type RoleSpec struct {
	Role Role
	// Count is how many replicas start in this role, assigned in
	// replica-ID order; <= 0 means all remaining replicas.
	Count int
}

// ExpandRoles assigns a role to each of total replicas in ID order: each
// spec covers Count replicas (<= 0 meaning the remainder), and the last
// spec pads out the pool. An empty spec yields the unified default.
func ExpandRoles(roles []RoleSpec, total int) []Role {
	if len(roles) == 0 {
		roles = []RoleSpec{{}}
	}
	out := make([]Role, 0, total)
	for _, rs := range roles {
		n := rs.Count
		if n <= 0 || n > total-len(out) {
			n = total - len(out)
		}
		for i := 0; i < n; i++ {
			out = append(out, rs.Role)
		}
		if len(out) == total {
			break
		}
	}
	for len(out) < total {
		out = append(out, roles[len(roles)-1].Role)
	}
	return out
}

// roleWindow is how often the role balancer weighs the split, and the span
// its counters cover. A window must hold enough prefills per replica for
// the pool's busy share to mean something: at 200 ms fleet_mixed flipped
// back and forth all run, and at 1 s a flip still reversed at some seeds.
const roleWindow = 2 * time.Second

// roleSample is one replica's cumulative counters at a window's edge.
type roleSample struct {
	busy                        time.Duration
	forwards, decodes, prefills int
}

// rolePool sums one pool's window over its serving replicas and names the
// least busy one, the donor if the pool gives a replica up.
type rolePool struct {
	n      int
	win    roleSample
	idlest *Replica
	idle   time.Duration
}

// balanceRoles is the role balancer's tick, armed by EnableHandoff on
// fleets with roles (docs/API.md, "Roles follow load"). On D decode
// replicas, N sessions decoding R steps a second wait d·N/D·R a second,
// d = PerTokenDecode; on P prefill replicas busy B a second, λ calls a
// second wait λ·W(B/P), W(ρ) = ρs/(2(1−ρ)) the M/D/1 wait at mean service
// s. A prefill replica turns decode when one more decode replica saves
// more than one fewer prefill replica adds, and a decode replica turns
// prefill in the mirror case (by convexity never both). The donor is its
// pool's least busy replica, and no role is ever emptied.
func (c *Cluster) balanceRoles() {
	var pre, dec rolePool
	for _, r := range c.replicas {
		s := r.Ctl.Scheduler()
		now := roleSample{busy: r.Backend.Device.BusyTime(), forwards: s.Forwards, decodes: s.DecodeCalls, prefills: s.PrefillCalls}
		was := r.sample
		r.sample = now
		if !r.serving() || r.Role == RoleUnified {
			continue
		}
		p := &pre
		if r.Role == RoleDecode {
			p = &dec
		}
		busy := now.busy - was.busy
		p.n++
		p.win.busy += busy
		p.win.forwards += now.forwards - was.forwards
		p.win.decodes += now.decodes - was.decodes
		p.win.prefills += now.prefills - was.prefills
		if p.idlest == nil || busy < p.idle {
			p.idlest, p.idle = r, busy
		}
	}
	if pre.n == 0 || dec.n == 0 {
		c.roleVote = RoleUnified
		return
	}
	sec := roleWindow.Seconds()
	bal := trace.RoleBalance{
		R:      float64(dec.win.decodes) / sec,
		Rho:    pre.win.busy.Seconds() / sec / float64(pre.n),
		Lambda: float64(pre.win.prefills) / sec,
	}
	if dec.win.forwards > 0 {
		bal.N = float64(dec.win.decodes) / float64(dec.win.forwards) * float64(dec.n)
	}
	if pre.win.prefills > 0 {
		bal.S = pre.win.busy / time.Duration(pre.win.prefills)
	}
	d := dec.idlest.Ctl.PerTokenDecode().Seconds()
	// Each pool's waiting per second on n replicas.
	decodeWait := func(n int) float64 { return d * bal.N / float64(n) * bal.R }
	prefillWait := func(n int) float64 {
		rho := bal.Rho * float64(pre.n) / float64(n)
		switch {
		case bal.Lambda == 0:
			return 0
		case rho >= 1:
			return math.Inf(1)
		}
		return rho * bal.S.Seconds() / (2 * (1 - rho)) * bal.Lambda
	}
	var donor *Replica
	to := RoleUnified
	if pre.n >= 2 {
		bal.Gain, bal.Loss = decodeWait(dec.n)-decodeWait(dec.n+1), prefillWait(pre.n-1)-prefillWait(pre.n)
		if bal.Gain > bal.Loss {
			donor, to = pre.idlest, RoleDecode
		}
	}
	if donor == nil && dec.n >= 2 {
		bal.Gain, bal.Loss = prefillWait(pre.n)-prefillWait(pre.n+1), decodeWait(dec.n-1)-decodeWait(dec.n)
		if bal.Gain > bal.Loss {
			donor, to = dec.idlest, RolePrefill
		}
	}
	// A flip needs two windows in a row to want it: a load that swings
	// within a window (pd's closed-loop legs at full scale) otherwise flips
	// a replica over and back.
	if donor != nil && to == c.roleVote {
		c.roleVote = RoleUnified
		c.flipRole(donor, to, bal)
		return
	}
	c.roleVote = to
}
