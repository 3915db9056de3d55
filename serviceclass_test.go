package pie_test

import (
	"errors"
	"testing"
	"time"

	"pie"
	"pie/apps"
)

// TestServiceClassSurface exercises the public service-class surface end
// to end: classed launches on a heterogeneous pool under the SLO scaler,
// handle-level class/degradation reporting, and the per-class attainment
// block in Stats.
func TestServiceClassSurface(t *testing.T) {
	classes := []pie.ServiceClass{
		{Name: "interactive", TTFTTarget: 150 * time.Millisecond, ITLTarget: 60 * time.Millisecond, Priority: 10},
		{Name: "batch", MinTokensPerSec: 40, Degradable: true},
	}
	variants := []pie.ReplicaVariant{
		{Name: "ref", CostRate: 1, Count: 1},
		{Name: "eco", CostRate: 0.6, Slowdown: 1.3},
	}
	e := pie.New(pie.Config{
		Mode:     pie.ModeTiming,
		Seed:     3,
		Replicas: 1,
		Classes:  classes,
		Variants: variants,
		Shed:     pie.ShedConfig{Enabled: true, KVWatermark: 0.9, QueueDepth: 8},
		Scaler: pie.ScalerConfig{
			Enabled: true, Min: 1, Max: 2, QueueRef: 4,
			ScaleToZero: true, IdleAfter: 100 * time.Millisecond,
		},
	})
	e.MustRegister(apps.All()...)

	degraded := 0
	err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := 0; i < 8; i++ {
			sp := pie.Spec("text_completion", `{"prompt":"class test prompt","max_tokens":12}`)
			sp.Class = "interactive"
			h, err := e.Launch(sp)
			if err != nil {
				t.Errorf("launch %d: %v", i, err)
				return
			}
			if h.Class() != "interactive" {
				t.Errorf("handle class = %q, want interactive", h.Class())
			}
			hs = append(hs, h)
		}
		e.Sleep(30 * time.Millisecond)
		for i := 0; i < 6; i++ {
			sp := pie.Spec("text_completion", `{"prompt":"batch class prompt","max_tokens":24}`)
			sp.Class = "batch"
			h, err := e.Launch(sp)
			if err != nil {
				t.Errorf("batch launch %d: %v", i, err)
				return
			}
			if h.Degraded() {
				degraded++
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
		}
		// Unknown classes are rejected at launch.
		bad := pie.Spec("text_completion", `{"prompt":"x","max_tokens":1}`)
		bad.Class = "platinum"
		if _, err := e.Launch(bad); !errors.Is(err, pie.ErrNoSuchClass) {
			t.Errorf("launch with unknown class: err = %v, want ErrNoSuchClass", err)
		}
		e.Sleep(400 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if len(st.Classes) != 2 || st.Classes[0].Class != "batch" || st.Classes[1].Class != "interactive" {
		t.Fatalf("Stats().Classes = %+v, want [batch interactive]", st.Classes)
	}
	ic := st.Classes[1]
	if ic.TTFTSamples == 0 || ic.TTFTTargetMS != 150 || ic.Priority != 10 {
		t.Fatalf("interactive class stat %+v: want samples > 0, target 150ms, prio 10", ic)
	}
	if !st.Classes[0].Degradable || st.Classes[0].Degradations != degraded {
		t.Fatalf("batch class stat %+v: want degradable with %d degradations", st.Classes[0], degraded)
	}
	if st.CostUnits <= 0 {
		t.Fatalf("cost units %.3f, want > 0", st.CostUnits)
	}
	if st.ScaleToZeroEvents == 0 {
		t.Fatal("idle engine never scaled to zero")
	}
}
