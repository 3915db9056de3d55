package pie_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pie"
	"pie/apps"
	"pie/internal/fleet"
)

// fleetDoc is a full-featured manifest exercising every ConfigFromManifest
// conversion: variants, role pools with headroom, classes, a pin, and KV
// policy.
const fleetDoc = `{
  "schema": 1,
  "seed": 17,
  "placement": "least-loaded",
  "variants": [
    {"name": "l4", "cost": 1.0},
    {"name": "l4-eco", "cost": 0.6, "slowdown": 1.4}
  ],
  "pools": [
    {"name": "fast", "variant": "l4", "count": 2, "max": 3},
    {"name": "eco", "variant": "l4-eco", "count": 1}
  ],
  "classes": [{"name": "interactive", "ttft": "250ms", "priority": 10}],
  "programs": [{"name": "text_completion", "version": "1.0.0", "class": "interactive"}],
  "kv": {"host_ratio": 1.5, "eviction": "priority"},
  "reconcile": {"interval": "2ms"}
}`

// TestConfigFromManifest pins the manifest -> Config conversion: topology,
// policies, and the Fleet back-pointer that makes New start the
// controller.
func TestConfigFromManifest(t *testing.T) {
	m, err := fleet.Parse([]byte(fleetDoc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := pie.ConfigFromManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 17 || cfg.Replicas != 3 || cfg.Fleet == nil {
		t.Fatalf("topology: seed=%d replicas=%d fleet=%v", cfg.Seed, cfg.Replicas, cfg.Fleet)
	}
	if cfg.Placement != pie.PlaceLeastLoaded || len(cfg.Variants) != 2 || len(cfg.Classes) != 1 {
		t.Fatalf("policies: placement=%v variants=%d classes=%d", cfg.Placement, len(cfg.Variants), len(cfg.Classes))
	}
	if cfg.HostKVRatio != 1.5 || cfg.KVEviction != pie.EvictPriority {
		t.Fatalf("kv: ratio=%v evict=%v", cfg.HostKVRatio, cfg.KVEviction)
	}

	bad := m.Clone()
	bad.Pools[0].Variant = "ghost"
	if _, err := pie.ConfigFromManifest(bad); !errors.Is(err, fleet.ErrUnknownReference) {
		t.Fatalf("invalid manifest: %v, want ErrUnknownReference", err)
	}
}

// TestFleetManagedEngine boots an engine from the manifest and drives the
// public fleet surface end to end: headroom replicas built but idle, a
// pinned launch, a hot count change converged by the controller, and
// status reads.
func TestFleetManagedEngine(t *testing.T) {
	m, err := fleet.Parse([]byte(fleetDoc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := pie.ConfigFromManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = pie.ModeTiming
	e := pie.New(cfg)
	e.MustRegister(apps.All()...)

	if e.FleetController() == nil {
		t.Fatal("manifest-built engine has no controller")
	}
	if rs := e.Cluster().Replicas(); len(rs) != 4 {
		t.Fatalf("built %d replicas, want 4 (3 serving + 1 headroom)", len(rs))
	}

	grow := m.Clone()
	grow.Pools[0].Count = 3
	e.Go("driver", func() {
		h, err := e.Launch(pie.Spec("text_completion", `{"prompt":"fleet api test","max_tokens":8}`))
		if err != nil {
			panic(err)
		}
		if err := h.Wait(); err != nil {
			panic(err)
		}
		if err := e.ApplyFleet(grow); err != nil {
			panic(err)
		}
		e.Sleep(30 * time.Millisecond)
		st, ok := e.FleetStatus()
		if !ok || !st.Converged || st.Generation != 1 {
			panic(fmt.Sprintf("after grow: %+v, %v", st, ok))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}

	st, ok := e.FleetStatus()
	if !ok || len(st.Pools) != 2 {
		t.Fatalf("FleetStatus = %+v, %v", st, ok)
	}
	serving := 0
	for _, p := range st.Pools {
		serving += p.Serving
	}
	if serving != 4 {
		t.Fatalf("serving after grow = %d, want 4", serving)
	}
}

// TestFleetSurfaceOnPlainEngine: the fleet verbs fail typed on an engine
// built from flags.
func TestFleetSurfaceOnPlainEngine(t *testing.T) {
	e := pie.New(pie.Config{Seed: 1, Mode: pie.ModeTiming, Replicas: 1})
	if e.FleetController() != nil {
		t.Fatal("plain engine has a fleet controller")
	}
	if _, ok := e.FleetStatus(); ok {
		t.Fatal("plain engine reports fleet status")
	}
	m, _ := fleet.Parse([]byte(fleetDoc))
	if err := e.ApplyFleet(m); !errors.Is(err, pie.ErrNotFleetManaged) {
		t.Fatalf("ApplyFleet = %v, want ErrNotFleetManaged", err)
	}
}
