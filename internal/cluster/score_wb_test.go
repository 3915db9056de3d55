// White-box tests of the cluster's one replica scorer (argmin): launch
// placement and the handoff pick on fixtures staged inside one process of a
// 2 prefill + 4 decode cluster, so every load they set is still outstanding
// when the scorer reads it.
package cluster

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"pie/api"
	"pie/internal/core"
)

// replicaState is what a fixture puts on one replica: live instances, an
// embed of tokens that stays outstanding, and an export of one page under
// the name "k". The instance that loads or exports is one of the instances.
type replicaState struct {
	instances, tokens int
	export            bool
}

// stage registers st's instances, export and load on r. It runs inside a
// process, and each control call sleeps the caller a few µs; a loaded
// replica's device runs a million times slower, so its embed is still
// outstanding when the scorer reads it (an idle device's predicted forward
// stays at no cost).
func stage(r *Replica, st replicaState) error {
	n := st.instances
	if st.export || st.tokens > 0 {
		n = max(n, 1)
	}
	var inst *core.Instance
	for range n {
		inst = r.Ctl.RegisterInstance("fixture", nil, nil)
	}
	if !st.export && st.tokens == 0 {
		return nil
	}
	q, err := r.Ctl.CreateQueue(inst, api.ModelID("llama-1b"))
	if err != nil {
		return err
	}
	if st.export {
		pages, err := r.Ctl.AllocPages(inst, q, 1)
		if err == nil {
			err = r.Ctl.ExportPages(inst, "k", pages)
		}
		if err != nil {
			return err
		}
	}
	if st.tokens == 0 {
		return nil
	}
	r.Backend.Device.SetSlowdown(1e6)
	embs, err := r.Ctl.AllocEmbeds(inst, q, st.tokens)
	if err != nil {
		return err
	}
	tok := make([]int, st.tokens)
	pos := make([]int, st.tokens)
	for i := range pos {
		pos[i] = i
	}
	_, err = r.Ctl.EmbedText(inst, q, tok, pos, embs)
	return err
}

// oldHandoffTarget is the handoff pick as it was before the one scorer: a
// stable sort by prediction plus load, the fewest outstanding tokens and
// then the fewest instances among exact ties at the front, swapped there.
func oldHandoffTarget(c *Cluster, src *Replica, wire time.Duration) (pick, runnerUp *Replica) {
	now := c.now()
	var cands []scored
	for _, r := range c.replicas {
		if r != src && r.serving() && r.decodeEligible() {
			cands = append(cands, scored{r: r, delay: r.Backend.NextForwardDone(now+wire) - now,
				load: time.Duration(r.Ctl.OutstandingTokens()) * r.Ctl.PerTokenDecode()})
		}
	}
	score := func(s scored) time.Duration { return s.delay + s.load }
	slices.SortStableFunc(cands, func(a, b scored) int { return cmp.Compare(score(a), score(b)) })
	lessLoaded := func(a, b *Replica) bool {
		at, bt := a.Ctl.OutstandingTokens(), b.Ctl.OutstandingTokens()
		return at < bt || (at == bt && a.Ctl.Instances() < b.Ctl.Instances())
	}
	best := 0
	for i := 1; i < len(cands) && score(cands[i]) == score(cands[0]); i++ {
		if lessLoaded(cands[i].r, cands[best].r) {
			best = i
		}
	}
	cands[0], cands[best] = cands[best], cands[0]
	return cands[0].r, cands[1].r
}

// TestOneScorer: placement and the handoff pick the lowest delay plus
// OutstandingTokens × PerTokenDecode, fewer live instances on an exact tie.
func TestOneScorer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy PlacementPolicy // placement rows
		args   []string        // placement rows
		// handoff rows pick a target for a session leaving replica 0 and
		// check the runner-up too, against the pre-scorer formula.
		handoff        bool
		fixture        map[int]replicaState
		pick, runnerUp int
	}{
		{name: "equal tokens go to fewer instances", policy: PlaceLeastLoaded,
			fixture: map[int]replicaState{0: {instances: 2}, 1: {instances: 1}}, pick: 1},
		{name: "fewer tokens beat fewer instances", policy: PlaceLeastLoaded,
			fixture: map[int]replicaState{0: {tokens: 8}, 1: {instances: 3, tokens: 4}}, pick: 1},
		{name: "two holders at equal residency: the idle one", policy: PlaceKVAffinity, args: []string{`{"cache_key":"k"}`},
			fixture: map[int]replicaState{0: {export: true, tokens: 64}, 1: {export: true}}, pick: 1},
		{name: "a warm artifact beats an idle cold replica", policy: PlaceProgramAffinity,
			fixture: map[int]replicaState{0: {tokens: 64}}, pick: 0},
		{name: "handoff: as the pre-scorer formula picks", handoff: true, pick: 4, runnerUp: 3,
			fixture: map[int]replicaState{2: {tokens: 300}, 3: {instances: 2}, 4: {instances: 1}, 5: {tokens: 120}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := pdCluster()
			c.SetPlacement(tc.policy)
			if tc.policy == PlaceProgramAffinity {
				c.replicas[0].Ctl.AdmitArtifact("p@1", 1, false)
			}
			c.clock.Go("fixture", func() {
				for _, r := range c.replicas {
					if err := stage(r, tc.fixture[r.ID]); err != nil {
						t.Error(err)
						return
					}
				}
				if tc.handoff {
					src := c.replicas[0]
					pick, runnerUp := c.handoffTarget(src, time.Millisecond)
					if pick.r.ID != tc.pick || runnerUp.r.ID != tc.runnerUp {
						t.Errorf("handoff to %d (runner-up %d), want %d (%d)", pick.r.ID, runnerUp.r.ID, tc.pick, tc.runnerUp)
					}
					if oldPick, oldRunnerUp := oldHandoffTarget(c, src, time.Millisecond); oldPick != pick.r || oldRunnerUp != runnerUp.r {
						t.Errorf("the pre-scorer formula picks %d (runner-up %d)", oldPick.ID, oldRunnerUp.ID)
					}
					return
				}
				ctl, err := c.Place("p", "p@1", tc.args)
				if err != nil {
					t.Error(err)
				} else if ctl != c.replicas[tc.pick].Ctl {
					t.Errorf("placed on %v, want replica %d", placedOn(c, ctl), tc.pick)
				}
			})
			if err := c.clock.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func placedOn(c *Cluster, ctl *core.Controller) int {
	for _, r := range c.replicas {
		if r.Ctl == ctl {
			return r.ID
		}
	}
	return -1
}
