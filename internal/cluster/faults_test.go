package cluster_test

// Fault-tolerance tests for the cluster layer: typed waiter errors on
// replica death (no parked-forever Handle.Wait), retry-driven requeue onto
// survivors, health-aware scaling, and the seeded chaos contract —
// a random kill/hang schedule over a stress workload must replay
// byte-identically, leak no KV pages on survivors, and leave every launch
// either completed or failed with a typed error. Runs under -race in CI.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pie"
	"pie/internal/cluster"
	"pie/internal/metrics"
	"pie/internal/sim"
	"pie/internal/trace"
)

// tightHealth detects failures quickly so tests stay short.
func tightHealth() pie.HealthConfig {
	return pie.HealthConfig{
		Enabled:      true,
		Interval:     2 * time.Millisecond,
		SuspectAfter: 4 * time.Millisecond,
		DeadAfter:    10 * time.Millisecond,
		HangTimeout:  40 * time.Millisecond,
	}
}

// wordyParams asks text_completion for 8 tokens after a prompt of the given
// length: 1500 words prefill for longer than the default HangTimeout.
func wordyParams(words int) string {
	return fmt.Sprintf(`{"prompt":%q,"max_tokens":8}`, strings.Repeat("word ", words))
}

// crashAt builds a single-event crash plan.
func crashAt(replica int, at time.Duration) pie.FaultPlan {
	return pie.FaultPlan{Events: []pie.FaultEvent{
		{At: at, Replica: replica, Kind: pie.FaultCrash},
	}}
}

// TestWaitReturnsTypedErrorOnReplicaDeath is the waiter-leak regression
// test: a launch in flight on the only replica when it crash-stops must
// resolve Wait with api.ErrReplicaLost — before the health layer, the
// done future parked forever because nothing ever released the dead
// replica's instances.
func TestWaitReturnsTypedErrorOnReplicaDeath(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 3, Replicas: 1,
		Health: tightHealth(),
		Faults: crashAt(0, 30*time.Millisecond),
	})
	var waitErr, relaunchErr error
	err := e.RunClient(func() {
		h, lerr := e.Launch(pie.Spec("text_completion", completionParams(64, "")))
		if lerr != nil {
			t.Errorf("launch: %v", lerr)
			return
		}
		waitErr = h.Wait()
		// With every replica dead, a new launch fails typed at placement.
		_, relaunchErr = e.Launch(pie.Spec("text_completion", completionParams(4, "")))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(waitErr, pie.ErrReplicaLost) {
		t.Fatalf("Wait on dead replica = %v, want ErrReplicaLost", waitErr)
	}
	if !errors.Is(relaunchErr, pie.ErrReplicaLost) {
		t.Fatalf("Launch into a dead fleet = %v, want ErrReplicaLost", relaunchErr)
	}
	cl := e.Cluster()
	if cl.ReplicasLost != 1 {
		t.Fatalf("ReplicasLost = %d, want 1", cl.ReplicasLost)
	}
	if cl.Replicas()[0].Health() != cluster.HealthDead {
		t.Fatalf("replica health = %v, want dead", cl.Replicas()[0].Health())
	}
}

// TestHangDetectionAbortsWaiters covers the hang arm of the fault model.
// A device hung while idle keeps answering health checks (no outstanding
// work means no missed progress), so the launch places normally — then its
// first inference call stalls. A device hung mid-kernel was making progress
// until that kernel was due. Either way the progress watchdog must flag the
// replica suspect, declare it dead no later than HangTimeout (to the monitor
// tick) after the stall began, and fail the waiter typed.
func TestHangDetectionAbortsWaiters(t *testing.T) {
	health := tightHealth()
	for _, tc := range []struct {
		name      string
		words     int
		hangAt    time.Duration
		midKernel bool
	}{
		{"hung before the first kernel", 3, time.Millisecond, false},
		// One 1500-word prefill outlasts HangTimeout on its own.
		{"hung mid-kernel", 1500, 40 * time.Millisecond, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, pie.Config{
				Seed: 3, Replicas: 1,
				Health: health,
				Faults: pie.FaultPlan{Events: []pie.FaultEvent{
					{At: tc.hangAt, Replica: 0, Kind: pie.FaultHang},
				}},
			})
			dev := e.Cluster().Replicas()[0].Backend.Device
			e.Clock().GoDaemon("probe", func() {
				e.Sleep(tc.hangAt)
				if busy := dev.Due() > e.Now(); busy != tc.midKernel {
					t.Errorf("at the hang: kernel executing = %v, want %v", busy, tc.midKernel)
				}
			})
			var waitErr error
			var launchedAt, deadAt time.Duration
			err := e.RunClient(func() {
				h, lerr := e.Launch(pie.Spec("text_completion", wordyParams(tc.words)))
				if lerr != nil {
					t.Errorf("launch: %v", lerr)
					return
				}
				launchedAt = e.Now()
				waitErr = h.Wait()
				deadAt = e.Now()
			})
			if err != nil {
				t.Fatal(err)
			}
			if !errors.Is(waitErr, pie.ErrReplicaLost) {
				t.Fatalf("Wait on hung replica = %v, want ErrReplicaLost", waitErr)
			}
			if e.Cluster().Suspects == 0 {
				t.Fatal("hang was never flagged suspect before death")
			}
			// The stall began when the frozen kernel was due, or, when no
			// kernel ever started, no later than the launch (the replica was
			// last seen idle before it).
			stalledAt := max(launchedAt, dev.Due())
			if lag := deadAt - stalledAt; lag > health.HangTimeout+health.Interval {
				t.Fatalf("declared dead %v after the stall began at %v, want within HangTimeout %v (to the %v tick)",
					lag, stalledAt, health.HangTimeout, health.Interval)
			}
		})
	}
}

// TestHealthyReplicasOutliveLongKernels: the progress watchdog dates a
// stall from the instant the executing kernel is due, not from the last
// kernel that completed, so a kernel that outlasts HangTimeout — a batch of
// long prefills, anything on a replica degraded by a slow fault — is
// progress, not a hang. Under the default HealthConfig every session must
// complete and no replica may be lost. (Dated from the last completion,
// the long-prefill case lost both replicas and failed 24/24 sessions with
// ErrReplicaLost.)
func TestHealthyReplicasOutliveLongKernels(t *testing.T) {
	for _, tc := range []struct {
		name   string
		words  int
		faults pie.FaultPlan
	}{
		{"batched 1500-word prefills", 1500, pie.FaultPlan{}},
		{"lone slow fault", 400, pie.FaultPlan{Events: []pie.FaultEvent{
			{At: 5 * time.Millisecond, Replica: 1, Kind: pie.FaultSlow, Factor: 8},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, pie.Config{
				Seed: 3, Replicas: 2, Placement: pie.PlaceLeastLoaded,
				Health: pie.HealthConfig{Enabled: true},
				Faults: tc.faults,
			})
			const sessions = 24
			done := 0
			err := e.RunClient(func() {
				g := sim.NewGroup(e.Clock())
				for i := 0; i < sessions; i++ {
					g.Go("client", func() {
						h, lerr := e.Launch(pie.Spec("text_completion", wordyParams(tc.words)))
						if lerr == nil {
							lerr = h.Wait()
						}
						if lerr != nil {
							t.Errorf("session failed: %v", lerr)
							return
						}
						done++
					})
				}
				g.Wait()
			})
			if err != nil {
				t.Fatal(err)
			}
			cl := e.Cluster()
			if done != sessions || cl.ReplicasLost != 0 {
				t.Fatalf("%d/%d sessions completed, ReplicasLost = %d; want all and 0", done, sessions, cl.ReplicasLost)
			}
			if cl.FaultsInjected != len(tc.faults.Events) {
				t.Fatalf("FaultsInjected = %d, want %d", cl.FaultsInjected, len(tc.faults.Events))
			}
			for _, r := range cl.Replicas() {
				if r.Backend.Device.Kernels() == 0 {
					t.Fatalf("replica %d ran no kernel: the load never reached it", r.ID)
				}
			}
		})
	}
}

// TestRetryRequeuesOntoSurvivor: with a retry policy, the same handle
// survives its replica's death — the launch requeues onto the survivor
// and completes, counting one logical launch across two attempts — and the
// cold spare (a third replica retired before the run) is activated in the
// dead replica's place.
func TestRetryRequeuesOntoSurvivor(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 3, Replicas: 3, Placement: pie.PlaceRoundRobin,
		Health: tightHealth(),
		Faults: crashAt(0, 30*time.Millisecond),
	})
	spare := e.Cluster().Replicas()[2]
	if !e.Cluster().Deactivate(spare) {
		t.Fatal("Deactivate refused the idle third replica")
	}
	var waitErr error
	var attempts int
	err := e.RunClient(func() {
		spec := pie.Spec("text_completion", completionParams(64, ""))
		spec.Retry = pie.RetryPolicy{MaxAttempts: 4}
		h, lerr := e.Launch(spec) // round-robin: lands on replica 0
		if lerr != nil {
			t.Errorf("launch: %v", lerr)
			return
		}
		waitErr = h.Wait()
		attempts = h.Attempts()
	})
	if err != nil {
		t.Fatal(err)
	}
	if waitErr != nil {
		t.Fatalf("retried launch failed: %v", waitErr)
	}
	if attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (requeue after replica death)", attempts)
	}
	st := e.Stats()
	if st.Requeues == 0 {
		t.Fatal("engine counted no requeues")
	}
	if st.Launches != 1 {
		t.Fatalf("Launches = %d, want 1 (one logical launch across attempts)", st.Launches)
	}
	if st.Replacements != 1 || !spare.Active() {
		t.Fatalf("Replacements = %d, spare active = %v; want the spare activated by the death",
			st.Replacements, spare.Active())
	}
}

// TestScalerIgnoresDeadReplicas: a replica crash-stopped under sustained
// load must drop out of the SLO scaler's capacity accounting — placements
// keep landing on healthy serving replicas only, the dead replica is never
// reactivated, and the workload still drains.
func TestScalerIgnoresDeadReplicas(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 5, Replicas: 4, Placement: pie.PlaceLeastLoaded,
		Scaler: pie.ScalerConfig{
			Enabled: true, Min: 1, Max: 4,
			Interval: 5 * time.Millisecond,
		},
		Health:       tightHealth(),
		Faults:       crashAt(1, 120*time.Millisecond),
		DefaultRetry: pie.RetryPolicy{MaxAttempts: 4},
	})
	badPlacements := 0
	e.Cluster().OnDecision = func(d trace.Decision) {
		if d.Kind != trace.Place {
			return
		}
		// Decision-time check: never place onto anything but a healthy,
		// active, non-draining replica (suspect fallback is only legal
		// when no healthy replica exists, which this test never hits).
		if r := e.Cluster().Replicas()[d.Replica]; r.Health() != cluster.HealthHealthy || !r.Active() || r.Draining() {
			badPlacements++
		}
	}
	const total, conc = 96, 24
	var done, failed int
	err := e.RunClient(func() {
		g := sim.NewGroup(e.Clock())
		queue := sim.NewMailbox[int](e.Clock())
		for i := 0; i < total; i++ {
			queue.Send(i)
		}
		for w := 0; w < conc; w++ {
			g.Go("client", func() {
				for {
					if _, ok := queue.TryRecv(); !ok {
						return
					}
					h, lerr := e.Launch(pie.Spec("text_completion", completionParams(8, "")))
					if lerr == nil {
						lerr = h.Wait()
					}
					if lerr != nil {
						failed++
						continue
					}
					done++
				}
			})
		}
		g.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if badPlacements != 0 {
		t.Fatalf("%d placements landed on unhealthy/inactive/draining replicas", badPlacements)
	}
	if done+failed != total || done == 0 {
		t.Fatalf("work unaccounted: done %d failed %d of %d", done, failed, total)
	}
	cl := e.Cluster()
	if cl.ReplicasLost != 1 {
		t.Fatalf("ReplicasLost = %d, want 1", cl.ReplicasLost)
	}
	dead := cl.Replicas()[1]
	if dead.Health() != cluster.HealthDead || dead.Active() {
		t.Fatalf("dead replica state: health %v active %v, want dead and inactive",
			dead.Health(), dead.Active())
	}
	// The scaler kept the surviving set serving: every active replica at
	// the end is healthy.
	for _, r := range cl.Replicas() {
		if r.Active() && r.Health() != cluster.HealthHealthy {
			t.Fatalf("replica %d active while %v", r.ID, r.Health())
		}
	}
}

// --- Seeded chaos -------------------------------------------------------

// chaosDoc is the full result document the determinism check compares.
type chaosDoc struct {
	Replicas []metrics.ReplicaStats `json:"replicas"`
	Stats    pie.Stats              `json:"stats"`
	Done     int                    `json:"done"`
	Typed    int                    `json:"typed_failures"`
}

// runChaos drives a stress workload under a seeded random kill/hang/slow
// schedule with retry armed, and asserts the no-lost-work contract: every
// launch completes or fails typed, and surviving replicas end with zero
// KV pages allocated.
func runChaos(t *testing.T, seed uint64) chaosDoc {
	t.Helper()
	plan := pie.RandomFaultPlan(seed, 8, 6, 600*time.Millisecond)
	e := newEngine(t, pie.Config{
		Seed: seed, Replicas: 8, Placement: pie.PlaceLeastLoaded,
		Health: tightHealth(),
		Faults: plan,
		DefaultRetry: pie.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  16 * time.Millisecond,
			Budget:      100 * time.Millisecond,
		},
	})
	const total, conc = 160, 32
	doc := chaosDoc{}
	err := e.RunClient(func() {
		g := sim.NewGroup(e.Clock())
		queue := sim.NewMailbox[int](e.Clock())
		for i := 0; i < total; i++ {
			queue.Send(i)
		}
		for w := 0; w < conc; w++ {
			g.Go("client", func() {
				for {
					if _, ok := queue.TryRecv(); !ok {
						return
					}
					h, lerr := e.Launch(pie.Spec("text_completion", completionParams(8, "")))
					if lerr == nil {
						lerr = h.Wait()
					}
					switch {
					case lerr == nil:
						doc.Done++
					case errors.Is(lerr, pie.ErrReplicaLost),
						errors.Is(lerr, pie.ErrRetryBudgetExhausted),
						errors.Is(lerr, pie.ErrTransientFault),
						errors.Is(lerr, pie.ErrTerminated):
						doc.Typed++
					default:
						t.Errorf("untyped launch failure: %v", lerr)
					}
				}
			})
		}
		g.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Done+doc.Typed != total {
		t.Fatalf("lost work: done %d + typed %d != %d", doc.Done, doc.Typed, total)
	}
	for _, r := range e.Cluster().Replicas() {
		if r.Health() == cluster.HealthDead {
			continue
		}
		if inUse, _ := r.Ctl.KVLoad(); inUse != 0 {
			t.Fatalf("replica %d leaked %d KV pages", r.ID, inUse)
		}
	}
	doc.Replicas = e.ReplicaStats()
	doc.Stats = e.Stats()
	return doc
}

// TestChaosScheduleSurvivesAndReplays: the chaos schedule actually bites
// (faults injected, replicas lost, launches requeued), the workload
// drains without hangs or leaks, and the same seed replays the entire
// stats document byte-identically — failure injection included.
func TestChaosScheduleSurvivesAndReplays(t *testing.T) {
	a := runChaos(t, 11)
	if a.Stats.FaultsInjected == 0 {
		t.Fatal("chaos plan injected no faults")
	}
	if a.Stats.ReplicasLost == 0 {
		t.Fatal("chaos schedule killed no replicas")
	}
	if a.Stats.Requeues == 0 {
		t.Fatal("no launches were requeued off dead replicas")
	}

	blob := func(d chaosDoc) string {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if x, y := blob(a), blob(runChaos(t, 11)); x != y {
		t.Fatalf("same-seed chaos runs diverged:\n%s\n%s", x, y)
	}
}

// TestChaosSeedSensitivity: different seeds must produce different fault
// schedules (the chaos layer is actually random, not a fixed script).
func TestChaosSeedSensitivity(t *testing.T) {
	a := pie.RandomFaultPlan(1, 8, 6, 600*time.Millisecond)
	b := pie.RandomFaultPlan(2, 8, 6, 600*time.Millisecond)
	if a.String() == b.String() {
		t.Fatalf("seeds 1 and 2 built identical fault plans: %s", a.String())
	}
	for _, ev := range a.Events {
		if ev.Replica == 0 {
			t.Fatal("random plan targeted replica 0 (the reserved quorum replica)")
		}
	}
}

// TestShedBestEffortUnderSaturation drives the admission guard's live
// signal path: an idle cluster admits best-effort launches, a saturated
// one sheds them typed with ErrOverloaded while high-priority work keeps
// flowing.
func TestShedBestEffortUnderSaturation(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 5, Replicas: 1,
		Shed: pie.ShedConfig{Enabled: true, QueueDepth: 0.5},
	})
	var idleErr, busyErr error
	err := e.RunClient(func() {
		be := pie.Spec("text_completion", completionParams(2, ""))
		be.Priority = -1
		if _, idleErr = e.LaunchAndWait(be); idleErr != nil {
			return
		}
		h, lerr := e.Launch(pie.Spec("text_completion", completionParams(64, "")))
		if lerr != nil {
			t.Errorf("high-priority launch: %v", lerr)
			return
		}
		// Let the decode loop queue outstanding calls past the watermark.
		e.Clock().Sleep(20 * time.Millisecond)
		_, busyErr = e.Launch(be)
		if werr := h.Wait(); werr != nil {
			t.Errorf("high-priority wait: %v", werr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if idleErr != nil {
		t.Fatalf("idle cluster shed a best-effort launch: %v", idleErr)
	}
	if !errors.Is(busyErr, pie.ErrOverloaded) {
		t.Fatalf("saturated launch = %v, want ErrOverloaded", busyErr)
	}
	if sheds := e.Cluster().Sheds; sheds != 1 {
		t.Fatalf("Sheds = %d, want 1", sheds)
	}
}

// TestTransientFaultInjectionRetries arms the per-launch transient stream
// at a high rate and checks the retry policy absorbs it: every launch
// completes, faults were actually injected, and at least one launch needed
// more than one attempt.
func TestTransientFaultInjectionRetries(t *testing.T) {
	e := newEngine(t, pie.Config{
		Seed: 8, Replicas: 2,
		Faults:       pie.FaultPlan{CallFailRate: 0.5, Seed: 8},
		DefaultRetry: pie.RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
	})
	retried := false
	err := e.RunClient(func() {
		for i := 0; i < 8; i++ {
			h, lerr := e.Launch(pie.Spec("text_completion", completionParams(2, "")))
			if lerr != nil {
				t.Errorf("launch %d: %v", i, lerr)
				return
			}
			if werr := h.Wait(); werr != nil {
				t.Errorf("wait %d: %v", i, werr)
				return
			}
			if h.Attempts() > 1 {
				retried = true
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := e.Cluster()
	if cl.TransientFaults == 0 {
		t.Fatal("CallFailRate 0.5 injected no transient faults")
	}
	if !retried {
		t.Fatal("no launch reported Attempts > 1 despite injected faults")
	}
	if cl.HealthEnabled() {
		t.Fatal("health monitor armed without config")
	}
}
