package cluster

import (
	"strings"
	"testing"
)

// TestCheckNamesTheBrokenClause breaks one clause of Cluster.Check per row
// on pdCluster, run to its end with replica 3 holding a two-page export,
// and expects Check to name it.
func TestCheckNamesTheBrokenClause(t *testing.T) {
	for clause, breaks := range map[string]func(c *Cluster){
		"sessions": func(c *Cluster) { // one session live on two replicas, as a clone would leave it
			c.replicas[1].Ctl.RegisterInstance("twin", nil, nil).Session = 9
			c.replicas[2].Ctl.RegisterInstance("twin", nil, nil).Session = 9
		},
		"replica 2: quiescence": func(c *Cluster) { c.replicas[2].Ctl.RegisterInstance("left", nil, nil) },
		"dead replica 3":        func(c *Cluster) { c.replicas[3].health = HealthDead }, // a page on a dead replica
		"transfer budget":       func(c *Cluster) { c.handoffActive = c.handoff.Budget + 1 },
		"quiescence":            func(c *Cluster) { c.handoffActive = 1 }, // a slot held with no live process
	} {
		c := pdCluster()
		ctl := c.replicas[3].Ctl
		c.clock.Go("exporter", func() {
			inst := ctl.RegisterInstance("t", nil, nil)
			defer ctl.ReleaseInstance(inst)
			q, _ := ctl.CreateQueue(inst, "llama-1b")
			if pages, err := ctl.AllocPages(inst, q, nil, 2); err != nil || ctl.ExportPages(inst, "x", pages) != nil {
				t.Fatalf("export: %v", err)
			}
		})
		if err := c.clock.Run(); err != nil {
			t.Fatal(err)
		}
		if inUse, _ := ctl.KVLoad(); inUse != 2 || c.Check() != nil {
			t.Fatalf("before breaking: %d pages in use, Check %v; want the export's 2 and nil", inUse, c.Check())
		}
		if breaks(c); c.Check() == nil || !strings.HasPrefix(c.Check().Error(), clause) {
			t.Errorf("Check = %v, want an error naming %q", c.Check(), clause)
		}
	}
}
