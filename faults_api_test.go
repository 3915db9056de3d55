package pie_test

// Surface tests for the fault-tolerance API the root package re-exports:
// fault-plan construction, the handle accessors the retry layer feeds
// (Attempts, Program, ClientTag), and the engine introspection hooks the
// serving front ends and eval harness lean on.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pie"
	"pie/apps"
)

func TestFaultPlanReExports(t *testing.T) {
	plan, err := pie.ParseFaultPlan("crash:1@200ms,hang:2@300ms")
	if err != nil || len(plan.Events) != 2 {
		t.Fatalf("ParseFaultPlan = %+v, %v", plan, err)
	}
	if _, err := pie.ParseFaultPlan("explode:1@5ms"); err == nil {
		t.Fatal("malformed plan accepted")
	}
	rnd := pie.RandomFaultPlan(7, 4, 5, 100*time.Millisecond)
	if len(rnd.Events) != 5 {
		t.Fatalf("RandomFaultPlan built %d events, want 5", len(rnd.Events))
	}
	for _, ev := range rnd.Events {
		if ev.Replica == 0 {
			t.Fatal("random plan faulted replica 0")
		}
	}
}

func TestHandleAndEngineIntrospection(t *testing.T) {
	e := pie.New(pie.Config{Seed: 2, Replicas: 2, Mode: pie.ModeTiming})
	e.MustRegister(apps.All()...)
	err := e.RunClient(func() {
		spec := pie.Spec("text_completion", `{"prompt":"probe","max_tokens":2}`)
		spec.ClientTag = "client-7"
		h, lerr := e.Launch(spec)
		if lerr != nil {
			t.Errorf("launch: %v", lerr)
			return
		}
		if werr := h.Wait(); werr != nil {
			t.Errorf("wait: %v", werr)
			return
		}
		if !h.Done() {
			t.Error("Done() false after Wait")
		}
		// No faults injected: exactly one placement attempt.
		if h.Attempts() != 1 {
			t.Errorf("Attempts = %d, want 1", h.Attempts())
		}
		if name, ver := h.Program(); name != "text_completion" || ver == "" {
			t.Errorf("Program = %q@%q", name, ver)
		}
		if h.ClientTag() != "client-7" {
			t.Errorf("ClientTag = %q", h.ClientTag())
		}
		if msg, ok := h.TryRecv(); !ok || msg == "" {
			t.Errorf("TryRecv missed the completion output: %q, %v", msg, ok)
		}
		if msg, ok := h.TryRecv(); ok {
			t.Errorf("TryRecv on drained handle = %q", msg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.ReplicaStats()); got != 2 {
		t.Fatalf("ReplicaStats len = %d, want 2", got)
	}
	if len(e.Programs()) == 0 || len(e.Models()) == 0 {
		t.Fatal("Programs/Models empty on a registered engine")
	}
	if !strings.Contains(e.String(), "replicas=2") {
		t.Fatalf("String() = %q", e.String())
	}
	if e.Cluster() == nil || e.Lifecycle() == nil || e.World() == nil {
		t.Fatal("introspection hooks returned nil")
	}
	if errors.Is(e.Cluster().LaunchFault(), pie.ErrTransientFault) {
		t.Fatal("fault stream armed without a plan")
	}
}

// TestCrashedReplicaHoldsNoPages: six unified replicas, kv-affinity
// placement, the health monitor on, and replica 2 crashing at 300 ms with
// batches on its device. Every session ends complete or with
// ErrReplicaLost, the exports on the dead replica are counted lost, and the
// cluster's Check passes at the end: its "dead replica" clause reads the
// dead pool empty (the batches its device held fail when it is declared
// dead, so their page pins drop and the pages the aborted sessions released
// are freed), and every record on a free list is blank.
func TestCrashedReplicaHoldsNoPages(t *testing.T) {
	plan, err := pie.ParseFaultPlan("crash:2@300ms")
	if err != nil {
		t.Fatal(err)
	}
	e := checked(t, pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming, Replicas: 6, Placement: pie.PlaceKVAffinity,
		Health: pie.HealthConfig{Enabled: true}, Faults: plan}))
	e.MustRegister(apps.All()...)
	const sessions, keys = 240, 12
	errs := make([]error, sessions)
	if err := e.RunClient(func() {
		for i := range errs {
			prefix := strings.Repeat(fmt.Sprintf("shared system prompt %d. ", i%keys), 12)
			h, err := e.Launch(pie.Spec("prefix_caching",
				fmt.Sprintf(`{"shared_prefix":%q,"prompt":"question %d","max_tokens":24}`, prefix, i)))
			if err != nil {
				errs[i] = err
				continue
			}
			e.Go("wait", func() { errs[i] = h.Wait() })
			e.Sleep(4 * time.Millisecond)
		}
	}); err != nil {
		t.Fatal(err)
	}
	lost := 0
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, pie.ErrReplicaLost):
			lost++
		default:
			t.Errorf("session %d: %v, want completion or ErrReplicaLost", i, err)
		}
	}
	st := e.Stats()
	if st.ReplicasLost != 1 || lost == 0 || st.ExportsLost == 0 || st.PagesLost < st.ExportsLost {
		t.Fatalf("%d replicas, %d sessions, %d exports and %d pages lost: the crash should cost one replica, some sessions and their exports' pages",
			st.ReplicasLost, lost, st.ExportsLost, st.PagesLost)
	}
}
