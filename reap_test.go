package pie_test

// A finished engine leaves nothing behind. Clock.Run returns once the last
// process has ended; the engine's periodic work (the cluster tick: health,
// the role balancer, the scaler) is timers, which the finished clock drops,
// and any process still suspended is unwound through its defers. No
// coroutine outlives the run. The second half of the contract is that
// nothing observable moves: what the last process saw of the engine is what
// the caller sees after Run.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pie"
	"pie/apps"
)

func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 400 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestFinishedEngineLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      pie.Config
		sessions int
	}{
		{"bare", pie.Config{Seed: 1, Mode: pie.ModeTiming}, 0},
		{"one-replica", pie.Config{Seed: 2, Mode: pie.ModeTiming}, 8},
		{"prefill:2;decode:4 with health monitor", pie.Config{
			Seed: 3, Mode: pie.ModeTiming, Replicas: 6, Placement: pie.PlaceLeastLoaded,
			Roles:  []pie.RoleSpec{{Role: pie.RolePrefill, Count: 2}, {Role: pie.RoleDecode, Count: 4}},
			Health: pie.HealthConfig{Enabled: true},
		}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for rep := 0; rep < 5; rep++ {
				e := pie.New(tc.cfg)
				e.MustRegister(apps.All()...)
				var hs []*pie.Handle
				// observe formats everything a caller can read of the engine.
				observe := func() string {
					s := fmt.Sprintf("stats=%+v replicas=%+v", e.Stats(), e.ReplicaStats())
					for _, m := range e.Models() {
						inUse, capacity := e.PoolStats(m)
						s += fmt.Sprintf(" %s=%d/%d", m, inUse, capacity)
					}
					for _, h := range hs {
						ctl, inf, out := h.Stats()
						s += fmt.Sprintf(" h=%d/%d/%d", ctl, inf, out)
					}
					return s
				}
				var inside string
				e.Go("driver", func() {
					for i := 0; i < tc.sessions; i++ {
						h, err := e.Launch(pie.Spec("text_completion", fmt.Sprintf(`{"prompt":"reap probe %d","max_tokens":%d}`, i%3, 6+2*(i%4))))
						if err != nil {
							t.Errorf("launch %d: %v", i, err)
							return
						}
						hs = append(hs, h)
					}
					for _, h := range hs {
						if err := h.Wait(); err != nil {
							t.Errorf("wait: %v", err)
						}
					}
					e.Sleep(50 * time.Millisecond) // let the sessions' own clean-up drain
					inside = observe()             // the last thing the last process does
				})
				if err := e.Run(); err != nil {
					t.Fatalf("run: %v", err)
				}
				if after := observe(); after != inside {
					t.Fatalf("the reap changed what the engine reports:\n last process saw: %s\n after Run:        %s", inside, after)
				}
			}
			if after := settledGoroutines(before); after > before {
				t.Fatalf("%d goroutines before 5 engines, %d after", before, after)
			}
		})
	}
}
