package cluster

import "fmt"

// Check verifies the cluster's invariants like core.Controller.Check,
// reading only, and returns an error prefixed with the first failing clause:
//
//   - "sessions": no two live instances, on any replicas, share a nonzero
//     Session key (a handoff moves an instance; nothing clones one).
//   - "replica <id>": the replica's Ctl.Check holds.
//   - "dead replica <id>": a replica health declared dead holds no page.
//   - "transfer budget": 0 ≤ handoff slots held ≤ budget, and sessions
//     wait for one only while all are held.
//   - "quiescence": with no live process, no slot held or waited on.
func (c *Cluster) Check() error {
	on := map[uint64]int{} // session -> the replica its instance is on
	for _, r := range c.replicas {
		for _, id := range r.Ctl.SortedInstanceIDs() {
			s := r.Ctl.Instance(id).Session
			if at, dup := on[s]; dup && s != 0 {
				return fmt.Errorf("sessions: session %d has live instances on replicas %d and %d", s, at, r.ID)
			}
			on[s] = r.ID
		}
	}
	for _, r := range c.replicas {
		if err := r.Ctl.Check(); err != nil {
			return fmt.Errorf("replica %d: %w", r.ID, err)
		}
		if inUse, _ := r.Ctl.KVLoad(); r.health == HealthDead && inUse != 0 {
			return fmt.Errorf("dead replica %d holds %d pages", r.ID, inUse)
		}
	}
	if c.transferWait == nil {
		return nil
	}
	active, waiting, budget := c.handoffActive, c.transferWait.Len(), c.handoff.Budget
	if active < 0 || active > budget || (waiting > 0 && active != budget) {
		return fmt.Errorf("transfer budget: %d of %d slots held, %d sessions waiting", active, budget, waiting)
	}
	if live, _, _, _ := c.clock.Stats(); live == 0 && active+waiting > 0 {
		return fmt.Errorf("quiescence: no live process, but %d transfer slots held, %d sessions waiting", active, waiting)
	}
	return nil
}
