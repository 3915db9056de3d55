// Engine-level tests of the reconciling controller: these drive real
// engines (the external test package may import pie) because pool
// convergence, two-phase drains, and rolling upgrades depend on live
// serving state — running instances, artifact caches, KV exports — that
// only the full stack produces.
package fleet_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"pie"
	"pie/apps"
	"pie/internal/fleet"
	"pie/internal/trace"
)

// bootManifest declares one pool with headroom and text_completion pinned
// to 1.0.0, reconciling every 2ms.
func bootManifest(count, max int) *fleet.Manifest {
	return &fleet.Manifest{
		Schema:    fleet.CurrentSchema,
		Pools:     []fleet.Pool{{Name: "main", Count: count, Max: max}},
		Programs:  []fleet.Pin{{Name: "text_completion", Version: "1.0.0"}},
		Reconcile: fleet.Reconcile{Interval: fleet.Duration(2 * time.Millisecond)},
	}
}

// newFleetEngine boots an engine from the manifest with text_completion
// 2.0.0 registered alongside 1.0.0.
func newFleetEngine(t *testing.T, m *fleet.Manifest) *pie.Engine {
	t.Helper()
	cfg, err := pie.ConfigFromManifest(m)
	if err != nil {
		t.Fatalf("ConfigFromManifest: %v", err)
	}
	cfg.Seed = 11
	cfg.Mode = pie.ModeTiming
	e := pie.New(cfg)
	e.MustRegister(apps.All()...)
	v2 := apps.TextCompletion()
	v2.Manifest.Version = "2.0.0"
	e.MustRegister(v2)
	return e
}

func completion(maxTokens int) string {
	return fmt.Sprintf(`{"prompt":"fleet controller test prompt","max_tokens":%d}`, maxTokens)
}

// TestAlignInitialHonorsHeadroom: a pool built 2-of-4 starts with exactly
// its desired replicas serving, not the cluster default prefix.
func TestAlignInitialHonorsHeadroom(t *testing.T) {
	e := newFleetEngine(t, bootManifest(2, 4))
	rs := e.Cluster().Replicas()
	if len(rs) != 4 {
		t.Fatalf("built %d replicas, want 4", len(rs))
	}
	for i, r := range rs {
		if want := i < 2; r.Active() != want {
			t.Fatalf("replica %d active = %v, want %v", i, r.Active(), want)
		}
	}
	st, ok := e.FleetStatus()
	if !ok || len(st.Pools) != 1 || st.Pools[0].Desired != 2 || st.Pools[0].Built != 4 {
		t.Fatalf("FleetStatus = %+v, %v", st, ok)
	}
}

// TestHotReloadConvergesPoolCounts grows 2 -> 4 and shrinks back to 1
// under live traffic; every in-flight session survives and the fleet
// converges to each desired count in turn.
func TestHotReloadConvergesPoolCounts(t *testing.T) {
	boot := bootManifest(2, 4)
	e := newFleetEngine(t, boot)
	grow := boot.Clone()
	grow.Pools[0].Count = 4
	shrink := boot.Clone()
	shrink.Pools[0].Count = 1

	serving := func() int {
		n := 0
		for _, r := range e.Cluster().Replicas() {
			if r.Active() && !r.Draining() {
				n++
			}
		}
		return n
	}
	e.Go("driver", func() {
		if err := e.ApplyFleet(grow); err != nil {
			panic(err)
		}
		e.Sleep(50 * time.Millisecond)
		if got := serving(); got != 4 {
			panic(fmt.Sprintf("after grow: serving %d, want 4", got))
		}
		// Keep a session in flight across the shrink.
		h, err := e.Launch(pie.Spec("text_completion", completion(24)))
		if err != nil {
			panic(err)
		}
		if err := e.ApplyFleet(shrink); err != nil {
			panic(err)
		}
		if err := h.Wait(); err != nil {
			panic(fmt.Sprintf("in-flight session dropped by shrink: %v", err))
		}
		// Two-phase drains need idle replicas to retire.
		e.Sleep(200 * time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st, _ := e.FleetStatus()
	if !st.Converged || st.Pools[0].Serving != 1 || st.Pools[0].Draining != 0 {
		t.Fatalf("after shrink: %+v", st.Pools[0])
	}
	if st.Generation != 2 || st.Activations == 0 || st.Drains < 3 {
		t.Fatalf("status counters: %+v", st)
	}
	if e.Cluster().DrainDone < 3 {
		t.Fatalf("drains retired = %d, want >= 3", e.Cluster().DrainDone)
	}
}

// TestRollingUpgradeRequeuesStragglers pins a long-running session's
// program to a new version with a tiny drain grace: the controller must
// abort-and-requeue it onto 2.0.0 with the client handle held open.
func TestRollingUpgradeRequeuesStragglers(t *testing.T) {
	boot := bootManifest(2, 2)
	boot.Reconcile.DrainDeadline = fleet.Duration(-time.Millisecond)
	e := newFleetEngine(t, boot)
	repin := boot.Clone()
	repin.Programs[0].Version = "2.0.0"
	var ds []trace.Decision
	e.Cluster().OnDecision = func(d trace.Decision) { ds = append(ds, d) }

	e.Go("driver", func() {
		h, err := e.Launch(pie.Spec("text_completion", completion(400)))
		if err != nil {
			panic(err)
		}
		e.Sleep(20 * time.Millisecond) // session under way on 1.0.0
		if err := e.ApplyFleet(repin); err != nil {
			panic(err)
		}
		if err := h.Wait(); err != nil {
			panic(fmt.Sprintf("upgraded session failed: %v", err))
		}
		e.Sleep(50 * time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().UpgradeRequeues; got < 1 {
		t.Fatalf("UpgradeRequeues = %d, want >= 1", got)
	}
	st, _ := e.FleetStatus()
	if !st.Converged || len(st.Programs) != 1 {
		t.Fatalf("status = %+v", st)
	}
	p := st.Programs[0]
	if !p.Pinned || p.Version != "2.0.0" || p.Upgrading {
		t.Fatalf("pin status = %+v", p)
	}
	if st.UpgradeRequeues != e.Stats().UpgradeRequeues {
		t.Fatalf("status requeues %d != stats %d", st.UpgradeRequeues, e.Stats().UpgradeRequeues)
	}
	// The controller's own records, timestamps aside: the boot pin, then
	// the apply, a prewarm per serving replica ahead of the cutover, and a
	// one-straggler rollout that requeues the only launch (handle 1).
	const prog, v1, v2 = "text_completion", "1.0.0", "2.0.0"
	want := []trace.Decision{
		{Kind: trace.Pin, Program: prog, Version: v1},
		{Kind: trace.Apply, Count: 1},
		{Kind: trace.Prewarm, Program: prog, Version: v2, Replica: 0},
		{Kind: trace.Prewarm, Program: prog, Version: v2, Replica: 1},
		{Kind: trace.Pin, Program: prog, Version: v2},
		{Kind: trace.UpgradeStart, Program: prog, Version: v2, Count: 1},
		{Kind: trace.UpgradeBatch, Program: prog, Version: v2, Count: 1},
		{Kind: trace.UpgradeRequeue, Program: prog, Version: v2, Session: 1},
		{Kind: trace.UpgradeDone, Program: prog, Version: v2},
	}
	var got []trace.Decision
	for _, d := range ds {
		if d.Kind != trace.Place {
			d.T = 0
			got = append(got, d)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("controller decisions:\n%+v\nwant\n%+v", got, want)
	}
}

// TestPinWaitsForRegistration: repinning to a not-yet-registered version
// leaves the old pin serving and reports the new one unpinned, with no pin
// record, until the version registers; it cuts over as soon as it does.
func TestPinWaitsForRegistration(t *testing.T) {
	boot := bootManifest(1, 1)
	e := newFleetEngine(t, boot)
	repin := boot.Clone()
	repin.Programs[0].Version = "3.0.0"
	pins := 0
	e.Cluster().OnDecision = func(d trace.Decision) {
		if d.Kind == trace.Pin && d.Version == "3.0.0" {
			pins++
		}
	}

	e.Go("driver", func() {
		if err := e.ApplyFleet(repin); err != nil {
			panic(err)
		}
		e.Sleep(30 * time.Millisecond)
		st, _ := e.FleetStatus()
		if p := st.Programs[0]; p.Pinned || p.Version != "3.0.0" || st.Converged {
			panic(fmt.Sprintf("unregistered version: status %+v, converged %v", p, st.Converged))
		}
		if pins != 0 {
			panic(fmt.Sprintf("%d pin records for an unregistered version", pins))
		}
		v3 := apps.TextCompletion()
		v3.Manifest.Version = "3.0.0"
		e.MustRegister(v3)
		e.Sleep(30 * time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st, _ := e.FleetStatus()
	if !st.Programs[0].Pinned || st.Programs[0].Version != "3.0.0" || pins != 1 {
		t.Fatalf("pin after late registration: %+v, %d pin records", st.Programs[0], pins)
	}
}

// TestPrewarmDoesNotFreezeReconcile: repin to a 1 MiB 2.0.0, whose uploads
// take hundreds of milliseconds, then grow the pool 2 -> 4 while they run.
// The grow converges on the next passes, and the pin stays on 1.0.0 until
// the last upload lands.
func TestPrewarmDoesNotFreezeReconcile(t *testing.T) {
	boot := bootManifest(2, 4)
	e := newFleetEngine(t, boot)
	big := apps.TextCompletion()
	big.Manifest.Version = "2.1.0"
	big.BinarySize = 1 << 20
	e.MustRegister(big)
	repin := boot.Clone()
	repin.Programs[0].Version = "2.1.0"
	grow := repin.Clone()
	grow.Pools[0].Count = 4
	var lastUpload, pinAt time.Duration
	e.Cluster().OnDecision = func(d trace.Decision) {
		switch {
		case d.Kind == trace.Prewarm:
			lastUpload = d.T
		case d.Kind == trace.Pin && d.Version == "2.1.0":
			pinAt = d.T
		}
	}

	e.Go("driver", func() {
		e.Sleep(5 * time.Millisecond) // let the boot pin land
		if err := e.ApplyFleet(repin); err != nil {
			panic(err)
		}
		e.Sleep(5 * time.Millisecond) // a pass has begun the uploads
		if err := e.ApplyFleet(grow); err != nil {
			panic(err)
		}
		e.Sleep(20 * time.Millisecond)
		st, _ := e.FleetStatus()
		if p := st.Pools[0]; p.Serving != 4 {
			panic(fmt.Sprintf("20ms after the grow: %d serving, want 4", p.Serving))
		}
		if st.Programs[0].Pinned || lastUpload != 0 {
			panic(fmt.Sprintf("pin cut over before the uploads landed: %+v", st.Programs[0]))
		}
		e.Sleep(500 * time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st, _ := e.FleetStatus()
	if !st.Programs[0].Pinned || st.Prewarms != 2 || lastUpload < 300*time.Millisecond {
		t.Fatalf("after the uploads: %+v, %d prewarms, last landed at %v", st.Programs[0], st.Prewarms, lastUpload)
	}
	// The cutover is the first pass at or after the last upload.
	if pinAt < lastUpload || pinAt >= lastUpload+2*time.Millisecond {
		t.Fatalf("pin cut over at %v, last upload landed at %v", pinAt, lastUpload)
	}
}

// TestReconcilePassAllocatesNothing: a pass over a converged fleet, with a
// session running on the pinned version, allocates nothing.
func TestReconcilePassAllocatesNothing(t *testing.T) {
	e := newFleetEngine(t, bootManifest(2, 4))
	e.Go("driver", func() {
		h, err := e.Launch(pie.Spec("text_completion", completion(64)))
		if err != nil {
			panic(err)
		}
		e.Sleep(10 * time.Millisecond)
		st, _ := e.FleetStatus()
		if !st.Converged || st.Programs[0].Live["1.0.0"] != 1 {
			panic(fmt.Sprintf("fleet not converged with one session live: %+v", st))
		}
		ctl := e.FleetController()
		if n := testing.AllocsPerRun(100, func() { ctl.Reconcile(e.Now()) }); n != 0 {
			panic(fmt.Sprintf("a reconcile pass allocated %v times, want 0", n))
		}
		_ = h.Wait()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBootPinHoldsBareNamesDown: with 2.0.0 registered as latest, the
// manifest's 1.0.0 pin decides what bare-name launches run.
func TestBootPinHoldsBareNamesDown(t *testing.T) {
	e := newFleetEngine(t, bootManifest(1, 1))
	e.Go("driver", func() {
		e.Sleep(5 * time.Millisecond) // let the boot pin land
		h, err := e.Launch(pie.Spec("text_completion", completion(64)))
		if err != nil {
			panic(err)
		}
		e.Sleep(10 * time.Millisecond)
		st, _ := e.FleetStatus()
		live := st.Programs[0].Live
		if live["1.0.0"] != 1 || live["2.0.0"] != 0 {
			panic(fmt.Sprintf("live versions = %v, want the 1.0.0 pin serving", live))
		}
		if lv := st.Programs[0].LiveVersions(); lv != "1.0.0:1" {
			panic(fmt.Sprintf("LiveVersions = %q", lv))
		}
		_ = h.Wait()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyRejectsImmutableChanges: hot reloads may change counts and
// pins, never topology; rejected applies leave the generation untouched.
func TestApplyRejectsImmutableChanges(t *testing.T) {
	boot := bootManifest(2, 4)
	e := newFleetEngine(t, boot)
	renamed := boot.Clone()
	renamed.Pools[0].Name = "other"
	if err := e.ApplyFleet(renamed); !errors.Is(err, fleet.ErrImmutable) {
		t.Fatalf("pool rename: %v, want ErrImmutable", err)
	}
	invalid := boot.Clone()
	invalid.Pools[0].Count = 9 // over built max: fails Validate first
	if err := e.ApplyFleet(invalid); !errors.Is(err, fleet.ErrAmbiguousPool) {
		t.Fatalf("invalid manifest: %v, want ErrAmbiguousPool", err)
	}
	if st, _ := e.FleetStatus(); st.Generation != 0 {
		t.Fatalf("rejected applies bumped generation to %d", st.Generation)
	}
}

// TestNotFleetManaged: engines booted from flags have no controller.
func TestNotFleetManaged(t *testing.T) {
	e := pie.New(pie.Config{Seed: 1, Mode: pie.ModeTiming, Replicas: 1})
	e.MustRegister(apps.All()...)
	if _, ok := e.FleetStatus(); ok {
		t.Fatal("flag-configured engine reports fleet status")
	}
	if err := e.ApplyFleet(bootManifest(1, 1)); !errors.Is(err, pie.ErrNotFleetManaged) {
		t.Fatalf("ApplyFleet = %v, want ErrNotFleetManaged", err)
	}
}
