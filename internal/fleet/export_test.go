package fleet

import "time"

// Reconcile runs one reconcile pass at now, as the cluster tick does, for
// the engine-level tests that measure a pass on its own.
func (c *Controller) Reconcile(now time.Duration) { c.reconcile(now) }
