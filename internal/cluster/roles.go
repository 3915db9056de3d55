package cluster

import (
	"fmt"
	"strings"
)

// Prefill/decode disaggregation (the dominant production serving
// topology): replicas carry a Role, new launches route to prefill-eligible
// capacity, and on first-token completion a session's KV pages hand off to
// a decode replica over the modeled interconnect (handoff.go). A unified
// replica serves both phases — the zero value, so role-less clusters
// behave exactly as before.

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
	// Count is how many replicas take this role, assigned in replica-ID
	// order; <= 0 means all remaining replicas.
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
