package cluster

import "pie/internal/trace"

// FlipRole moves r to role through the role balancer's fleet op, for the
// engine-level tests that stage a flip at a chosen instant.
func (c *Cluster) FlipRole(r *Replica, role Role) { c.flipRole(r, role, trace.RoleBalance{}) }
