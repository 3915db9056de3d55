// Engine-level tests of prefill/decode disaggregation: role-aware
// placement, KV handoff after the first forward or an import of prefilled
// KV, the bounded transfer budget,
// denial when decode capacity is gone, and page conservation across the
// migration.
package cluster_test

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"pie"
	"pie/internal/cluster"
	"pie/internal/trace"
	"pie/support"
)

func TestRoleAwarePlacementPrefersPrefill(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 3, Placement: pie.PlaceRoundRobin,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	})
	err := e.RunClient(func() {
		for i := 0; i < 4; i++ {
			if _, err := e.LaunchAndWait(pie.Spec("text_completion", completionParams(2, ""))); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every launch lands on the prefill replica; the decode replicas'
	// Placements count only handoffs received.
	rs := e.Cluster().Replicas()
	if rs[0].Placements < 4 {
		t.Fatalf("prefill replica placements = %d, want >= 4", rs[0].Placements)
	}
	for _, r := range rs[1:] {
		if r.Placements != r.HandoffsIn {
			t.Fatalf("decode replica %d placements = %d beyond its %d handoffs", r.ID, r.Placements, r.HandoffsIn)
		}
	}
}

func TestHandoffMigratesSessionsToDecode(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 3, Placement: pie.PlaceLeastLoaded,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	})
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 4; i++ {
			h, err := e.Launch(pie.Spec("text_completion", completionParams(24, "")))
			if err != nil {
				panic(err)
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Handoffs != 4 {
		t.Fatalf("Handoffs = %d, want 4 (one per session)", st.Handoffs)
	}
	if st.HandoffPages == 0 || st.HandoffTime == 0 {
		t.Fatalf("handoff moved %d pages in %v, want nonzero work and cost", st.HandoffPages, st.HandoffTime)
	}
	rs := e.Cluster().Replicas()
	if rs[0].HandoffsOut != 4 {
		t.Fatalf("prefill HandoffsOut = %d, want 4", rs[0].HandoffsOut)
	}
	if rs[1].HandoffsIn+rs[2].HandoffsIn != 4 {
		t.Fatalf("decode HandoffsIn = %d+%d, want 4 total", rs[1].HandoffsIn, rs[2].HandoffsIn)
	}
	// Decode work actually ran on decode replicas: their devices saw
	// kernels after receiving the sessions.
	if rs[1].Backend.Device.Kernels()+rs[2].Backend.Device.Kernels() == 0 {
		t.Fatal("decode replicas ran no kernels after handoff")
	}
}

func TestHandoffTransferBudgetQueues(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 3, Placement: pie.PlaceLeastLoaded, HandoffBudget: 1,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	})
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 8; i++ {
			h, err := e.Launch(pie.Spec("text_completion", completionParams(16, "")))
			if err != nil {
				panic(err)
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Handoffs != 8 {
		t.Fatalf("Handoffs = %d, want 8", st.Handoffs)
	}
	if st.HandoffQueued == 0 {
		t.Fatal("budget=1 under 8 concurrent sessions queued no transfers")
	}
}

func TestHandoffDeniedWithoutDecodeCapacity(t *testing.T) {
	// All-prefill pool: every first token seeks a decode replica, finds
	// none, and the session finishes where it started instead of stalling.
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 2, Placement: pie.PlaceRoundRobin,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill}},
	})
	err := e.RunClient(func() {
		if _, err := e.LaunchAndWait(pie.Spec("text_completion", completionParams(8, ""))); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Handoffs != 0 || st.HandoffDenied == 0 {
		t.Fatalf("Handoffs = %d, HandoffDenied = %d; want denial, no migration", st.Handoffs, st.HandoffDenied)
	}
}

// TestHandoffBudgetSurvivesReplicaCrash is the regression test for the
// transfer-slot leak: a crash-stopped prefill replica kills sessions that
// hold or queue on the saturated (Budget=1) transfer budget. Every launch
// must still resolve — success or a typed error — and the budget must
// drain back to zero; before the deferred-release fix the killed holder
// leaked its slot and every later handoff parked forever (the run
// deadlocked).
func TestHandoffBudgetSurvivesReplicaCrash(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 4, Placement: pie.PlaceLeastLoaded, HandoffBudget: 1,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 2}, {Role: pie.RoleDecode}},
		Health: pie.HealthConfig{
			Enabled: true, Interval: 2 * time.Millisecond,
			SuspectAfter: 4 * time.Millisecond, DeadAfter: 8 * time.Millisecond,
		},
		Faults: pie.FaultPlan{Events: []pie.FaultEvent{
			{At: 30 * time.Millisecond, Replica: 0, Kind: pie.FaultCrash},
		}},
		DefaultRetry: pie.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	// A session that waits out its deadline waited for a slot no one gave
	// back: the deadline, far past the run's normal end, turns a leaked
	// slot into a failure in virtual time instead of a hang.
	const deadline = time.Minute
	resolved, failed, late := 0, 0, 0
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 12; i++ {
			spec := pie.Spec("text_completion", completionParams(24, ""))
			spec.Deadline = deadline
			h, err := e.Launch(spec)
			if err != nil {
				failed++
				continue
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); errors.Is(err, pie.ErrDeadlineExceeded) {
				late++
			} else if err != nil {
				failed++
			}
			resolved++
		}
	})
	if err != nil || late > 0 {
		t.Fatalf("Run: %v; %d sessions ran past %v (a leaked transfer slot deadlocks the run)", err, late, deadline)
	}
	st := e.Stats()
	if st.ReplicasLost != 1 {
		t.Fatalf("ReplicasLost = %d, want 1 (the crash must land)", st.ReplicasLost)
	}
	if st.HandoffQueued == 0 {
		t.Fatal("budget=1 under 12 concurrent sessions queued no transfers; the test no longer exercises the saturated budget")
	}
	if resolved+failed < 12 {
		t.Fatalf("only %d launches resolved (+%d failed early), want all 12 accounted for", resolved, failed)
	}
}

func TestScalerGrowsStarvedRoleTier(t *testing.T) {
	// A disaggregated pool under the SLO scaler: the fleet mean would
	// average the saturated prefill replica away against idle decode
	// capacity, so the scaler must reason per role — and say which role
	// drove the decision.
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 2, Placement: pie.PlaceLeastLoaded,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
		Scaler: pie.ScalerConfig{
			Enabled: true, Min: 2, Max: 4,
			Interval: 2 * time.Millisecond, SatHigh: 0.05,
		},
	})
	ds := decisionLog(t, e)
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 6; i++ {
			h, err := e.Launch(pie.Spec("text_completion", completionParams(24, "")))
			if err != nil {
				panic(err)
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Cluster().ScaleUps == 0 {
		t.Fatal("saturated disaggregated pool never scaled up")
	}
	for _, d := range *ds {
		if d.Kind == trace.ScaleUp && d.Role != "prefill" && d.Role != "decode" {
			t.Fatalf("scale-up record names no starved role: %+v", d)
		}
	}
}

func TestExpandRoles(t *testing.T) {
	got := cluster.ExpandRoles([]cluster.RoleSpec{
		{Role: cluster.RolePrefill, Count: 2}, {Role: cluster.RoleDecode},
	}, 5)
	want := []cluster.Role{
		cluster.RolePrefill, cluster.RolePrefill,
		cluster.RoleDecode, cluster.RoleDecode, cluster.RoleDecode,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpandRoles = %v, want %v", got, want)
		}
	}
	// Empty spec: everyone unified.
	for _, r := range cluster.ExpandRoles(nil, 3) {
		if r != cluster.RoleUnified {
			t.Fatal("empty spec must yield unified replicas")
		}
	}
	// Oversized count clamps; short spec pads with the last role.
	got = cluster.ExpandRoles([]cluster.RoleSpec{{Role: cluster.RoleDecode, Count: 9}}, 2)
	if len(got) != 2 || got[0] != cluster.RoleDecode || got[1] != cluster.RoleDecode {
		t.Fatalf("clamped ExpandRoles = %v", got)
	}
}

// TestColdKeysSpreadOverPrefillReplicas: a cold kv-affinity key hash-sticks
// within the prefill-eligible set, so two prefill replicas each take about
// half the keys (hashing over all six and walking past the decode pool
// sent 5/6 of them to replica 0), and draining a decode replica, which the
// hash never covered, moves no key.
func TestColdKeysSpreadOverPrefillReplicas(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 6, Placement: pie.PlaceKVAffinity,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 2}, {Role: pie.RoleDecode}},
	})
	c := e.Cluster()
	rs := c.Replicas()
	const keys = 600
	place := func() []int {
		home := make([]int, keys)
		for k := range home {
			ctl, err := c.Place("text_completion", "", []string{fmt.Sprintf(`{"cache_key":"cold-%d"}`, k)}, uint64(k+1))
			if err != nil {
				t.Fatal(err)
			}
			home[k] = -1
			for _, r := range rs {
				if r.Ctl == ctl {
					home[k] = r.ID
				}
			}
		}
		return home
	}
	before := place()
	for _, r := range rs[:2] {
		if r.Placements < keys*4/10 || r.Placements > keys*6/10 {
			t.Fatalf("prefill replica %d took %d of %d cold keys, want 40-60%%", r.ID, r.Placements, keys)
		}
	}
	for _, r := range rs[2:] {
		if r.Placements != 0 {
			t.Fatalf("decode replica %d took %d launches", r.ID, r.Placements)
		}
	}
	if !c.BeginDrain(rs[3]) {
		t.Fatal("decode replica did not start draining")
	}
	for k, id := range place() {
		if id != before[k] {
			t.Fatalf("key %d moved from replica %d to %d when a decode replica drained", k, before[k], id)
		}
	}
}

// TestImportedPrefixHandsOffBeforeItsFirstForward: on a prefill/decode pair,
// a session that imports a prefilled prefix is ready to hand off at the
// import. It runs no forward on the prefill replica; its sub-page remainder
// and its question prefill in one forward on the decode replica, after the
// handoff and before its first token. A session that imports nothing still
// prefills on the prefill replica and hands off after its first forward.
func TestImportedPrefixHandsOffBeforeItsFirstForward(t *testing.T) {
	e := pie.New(pie.Config{
		Seed: 11, Mode: pie.ModeTiming, Replicas: 2,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	})
	rs := e.Cluster().Replicas()
	// Completed forward calls per replica, and the TTFT-flagged ones.
	var forwards, firsts [2]int
	e.Cluster().OnSpan = func(s trace.Span) {
		if s.Kind == trace.TTFT || s.Kind == trace.ITL {
			forwards[s.Replica]++
		}
		if s.Kind == trace.TTFT {
			firsts[s.Replica]++
		}
	}
	const prefixKey = "handoff:prefix"
	// What each session saw around its first NextDist: handoffs and
	// forwards per replica just before it and just after it returned.
	type view struct {
		handoffs int
		forwards [2]int
	}
	seen := map[string][2]view{}
	e.MustRegister(pie.Program{Name: "prefix_chat", BinarySize: 4 << 10, Run: func(s pie.Session) error {
		mode := s.GetArg()[0]
		m := s.AvailableModels()[0]
		prefix := slices.Repeat([]int{5}, 2*m.PageSize+5) // two shareable pages and a remainder
		aligned := prefix[:2*m.PageSize]
		var c *support.Context
		var err error
		switch mode {
		case "export":
			if c, err = support.NewContext(s, m); err != nil {
				return err
			}
			if err := c.FillTokens(aligned); err != nil {
				return err
			}
			if err := c.Export(prefixKey); err != nil {
				return err
			}
		case "import":
			if c, err = support.ImportContext(s, m, prefixKey, aligned); err != nil {
				return err
			}
		default:
			if c, err = support.NewContext(s, m); err != nil {
				return err
			}
		}
		if mode != "plain" {
			if err := c.FillTokens(prefix[len(aligned):]); err != nil {
				return err
			}
		}
		if err := c.Fill("what comes next"); err != nil {
			return err
		}
		at := func() view { return view{e.Stats().Handoffs, forwards} }
		before := at()
		if _, err := c.NextDist(); err != nil {
			return err
		}
		seen[mode] = [2]view{before, at()}
		if _, err := c.Generate(support.GenOpts{MaxTokens: 4}); err != nil {
			return err
		}
		return c.Drop()
	}})
	if err := e.RunClient(func() {
		for _, mode := range []string{"export", "import", "plain"} {
			if _, err := e.LaunchAndWait(pie.Spec("prefix_chat", mode)); err != nil {
				t.Errorf("%s session: %v", mode, err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	const prefill, decode = 0, 1
	imp := seen["import"]
	if got := imp[1].handoffs - imp[0].handoffs; got != 1 {
		t.Fatalf("the importer's first NextDist spanned %d handoffs, want 1: the import marks it", got)
	}
	if imp[0].forwards[prefill] != seen["export"][1].forwards[prefill] || imp[1].forwards[prefill] != imp[0].forwards[prefill] {
		t.Fatalf("the importer ran forwards on the prefill replica (%d before its first token, %d during it)",
			imp[0].forwards[prefill]-seen["export"][1].forwards[prefill], imp[1].forwards[prefill]-imp[0].forwards[prefill])
	}
	if got := imp[1].forwards[decode] - imp[0].forwards[decode]; got != 1 {
		t.Fatalf("the importer's remainder and question took %d forwards on the decode replica, want 1", got)
	}
	plain := seen["plain"]
	if plain[1].handoffs != plain[0].handoffs || plain[1].forwards[prefill] != plain[0].forwards[prefill]+1 {
		t.Fatalf("a session importing nothing handed off %d times and ran %d prefill-replica forwards before its first token, want 0 and 1",
			plain[1].handoffs-plain[0].handoffs, plain[1].forwards[prefill]-plain[0].forwards[prefill])
	}
	st := e.Stats()
	if st.Handoffs != 3 {
		t.Fatalf("Handoffs = %d, want one per session", st.Handoffs)
	}
	// Every session's first forward is its TTFT sample: the exporter's and
	// the plain session's on the prefill replica, the importer's on decode.
	if firsts != [2]int{2, 1} {
		t.Fatalf("first forwards per replica = %v, want [2 1]", firsts)
	}
	// The export stays on the replica it was made on.
	if exports, pages := rs[prefill].Ctl.DropExports(); exports != 1 || pages != 2 {
		t.Fatalf("the prefill replica held %d exports of %d pages, want the prefix's 1 of 2", exports, pages)
	}
}

// rhythmEngine is a prefill:1;decode:2 engine with rhythm_probe registered:
// a session that runs one forward on its prefill replica, which marks it
// for handoff, then fills n tokens and samples. It hands off at that fill's
// embed and prefills the n tokens in one forward on its decode replica.
func rhythmEngine(t *testing.T, faults pie.FaultPlan) *pie.Engine {
	e := newEngine(t, pie.Config{
		Seed: 11, Replicas: 3, Placement: pie.PlaceLeastLoaded,
		Roles:  []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
		Faults: faults,
	})
	e.MustRegister(pie.Program{Name: "rhythm_probe", Run: func(s pie.Session) error {
		n, err := strconv.Atoi(s.GetArg()[0])
		if err != nil {
			return err
		}
		c, err := support.NewContext(s, s.AvailableModels()[0])
		if err != nil {
			return err
		}
		if err := c.Fill("rhythm probe"); err != nil {
			return err
		}
		if _, err := c.NextDist(); err != nil {
			return err
		}
		if err := c.FillTokens(slices.Repeat([]int{5}, n)); err != nil {
			return err
		}
		if _, err := c.NextDist(); err != nil {
			return err
		}
		return c.Drop()
	}})
	return e
}

// landProbe launches a rhythm_probe of n tokens and returns its handle once
// its session has handed off, with the decode replica it landed on. It runs
// in the engine's client process.
func landProbe(e *pie.Engine, n int) (*pie.Handle, *cluster.Replica) {
	rs := e.Cluster().Replicas()
	before := make([]int, len(rs))
	for i, r := range rs {
		before[i] = r.HandoffsIn
	}
	h, err := e.Launch(pie.Spec("rhythm_probe", strconv.Itoa(n)))
	if err != nil {
		panic(err)
	}
	for deadline := e.Now() + time.Second; e.Now() < deadline; {
		e.Sleep(100 * time.Microsecond)
		for i, r := range rs {
			if r.HandoffsIn > before[i] {
				return h, r
			}
		}
	}
	panic(fmt.Sprintf("a %d-token probe never handed off", n))
}

// handoffs keeps the handoff records of a decision log, oldest first.
func handoffs(ds []trace.Decision) []trace.Decision {
	var out []trace.Decision
	for _, d := range ds {
		if d.Kind == trace.Handoff {
			out = append(out, d)
		}
	}
	return out
}

// TestHandoffGoesWhereTheNextForwardEndsFirst: decode replicas B and C carry
// equal load, one 2000-token prefill each, but C's started ~35 ms before
// B's and is about to finish. A session handing off now joins C's next
// forward, which ends first. (Least-loaded placement sees a tie and takes B,
// the lower ID.)
func TestHandoffGoesWhereTheNextForwardEndsFirst(t *testing.T) {
	e := rhythmEngine(t, pie.FaultPlan{})
	ds := decisionLog(t, e)
	rs := e.Cluster().Replicas()
	b, c := rs[1], rs[2]
	err := e.RunClient(func() {
		w, at := landProbe(e, 300) // nothing tells B and C apart yet: B
		if at != b {
			panic(fmt.Sprintf("the first probe landed on replica %d, want B", at.ID))
		}
		y, at := landProbe(e, 2000) // B is busy with w's prefill
		if at != c {
			panic(fmt.Sprintf("the second probe landed on replica %d, want C", at.ID))
		}
		if err := w.Wait(); err != nil {
			panic(err)
		}
		x, at := landProbe(e, 2000) // C is inside y's prefill
		if at != b {
			panic(fmt.Sprintf("the third probe landed on replica %d, want B", at.ID))
		}
		e.Sleep(3 * time.Millisecond) // x's embed done: both are in a 2000-token forward
		if b.Ctl.OutstandingTokens() != c.Ctl.OutstandingTokens() || b.Ctl.Instances() != c.Ctl.Instances() {
			panic(fmt.Sprintf("unequal load: B %d tokens over %d sessions, C %d over %d",
				b.Ctl.OutstandingTokens(), b.Ctl.Instances(), c.Ctl.OutstandingTokens(), c.Ctl.Instances()))
		}
		z, at := landProbe(e, 1)
		if at != c {
			panic(fmt.Sprintf("the session handed off to replica %d, want C, whose forward ends first", at.ID))
		}
		for _, h := range []*pie.Handle{x, y, z} {
			if err := h.Wait(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := handoffs(*ds)
	if why := hs[len(hs)-1]; why.Chosen.Replica != c.ID || why.RunnerUp.Replica != b.ID ||
		why.Chosen.Load != why.RunnerUp.Load || why.Chosen.Pred >= why.RunnerUp.Pred {
		t.Fatalf("decision %+v: want C chosen over B on an earlier prediction at equal load", why)
	}
}

// TestHandoffEqualRhythmPrefersLessLoaded: neither decode replica has run a
// forward, so a session would join a forward starting the moment it lands
// on either. One session lands on B and embeds 40 000 tokens (24 ms); a
// session handing off meanwhile goes to C, the less loaded.
func TestHandoffEqualRhythmPrefersLessLoaded(t *testing.T) {
	e := rhythmEngine(t, pie.FaultPlan{})
	ds := decisionLog(t, e)
	rs := e.Cluster().Replicas()
	b, c := rs[1], rs[2]
	err := e.RunClient(func() {
		v, at := landProbe(e, 40000) // a tie: B
		if at != b {
			panic(fmt.Sprintf("the tie went to replica %d, want B", at.ID))
		}
		z, at := landProbe(e, 1)
		if at != c {
			panic(fmt.Sprintf("the session handed off to replica %d, want C, the less loaded", at.ID))
		}
		for _, h := range []*pie.Handle{v, z} {
			if err := h.Wait(); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := handoffs(*ds)
	if why := hs[len(hs)-1]; why.Chosen.Replica != c.ID || why.Chosen.Pred != why.RunnerUp.Pred || why.Chosen.Load >= why.RunnerUp.Load {
		t.Fatalf("decision %+v: want C chosen at an equal prediction on a lighter load", why)
	}
}

// TestHandoffAvoidsSlowReplica: once a slow fault stretches B's kernels
// fourfold, B's next forward ends later than C's at equal (zero) load, so
// every handoff goes to C.
func TestHandoffAvoidsSlowReplica(t *testing.T) {
	const slowAt = 500 * time.Millisecond
	e := rhythmEngine(t, pie.FaultPlan{Events: []pie.FaultEvent{
		{At: slowAt, Replica: 1, Kind: pie.FaultSlow, Factor: 4},
	}})
	ds := decisionLog(t, e)
	rs := e.Cluster().Replicas()
	b, c := rs[1], rs[2]
	err := e.RunClient(func() {
		// Warm both decode replicas with one forward each.
		var hs []*pie.Handle
		for range 2 {
			h, err := e.Launch(pie.Spec("rhythm_probe", "300"))
			if err != nil {
				panic(err)
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				panic(err)
			}
		}
		if b.HandoffsIn != 1 || c.HandoffsIn != 1 {
			panic(fmt.Sprintf("warm-up landed %d on B and %d on C, want one each", b.HandoffsIn, c.HandoffsIn))
		}
		e.Sleep(slowAt + time.Millisecond - e.Now())
		for range 3 {
			if _, err := e.LaunchAndWait(pie.Spec("rhythm_probe", "300")); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := handoffs(*ds)
	for _, why := range hs[len(hs)-3:] {
		if why.Chosen.Replica != c.ID || why.Chosen.Load != why.RunnerUp.Load || why.RunnerUp.Pred < 3*why.Chosen.Pred {
			t.Fatalf("decision %+v: want C chosen over the slowed B at equal load", why)
		}
	}
	if b.HandoffsIn != 1 || c.HandoffsIn != 4 {
		t.Fatalf("handoffs in: B %d, C %d; want the slowed B to take none after its fault", b.HandoffsIn, c.HandoffsIn)
	}
}
