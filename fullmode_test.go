package pie_test

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"pie"
	"pie/inferlet"
	"pie/support"
)

// A full-mode inference call allocates only what the program keeps: a
// get_next_dist result is its own cut of a slab the runtime never reuses,
// and a fused forward's input slots and sampling distribution live in the
// runtime's scratch. These tests hold the real-tensor path to that.

// runFull runs one program on a full-mode engine to its end.
func runFull(t *testing.T, run func(s inferlet.Session) error) {
	t.Helper()
	e := checked(t, pie.New(pie.Config{Seed: 42, Mode: pie.ModeFull}))
	e.MustRegister(inferlet.Program{Name: "full", BinarySize: 4 << 10, Run: run})
	var err error
	if cerr := e.RunClient(func() {
		var h *pie.Handle
		if h, err = e.Launch(pie.Spec("full")); err == nil {
			err = h.Wait()
		}
	}); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestFullModeKeptDistIsStable: a distribution a program keeps reads the
// same after 40 later distributions on the same runtime — more than two
// slabs' worth, so a runtime that reused a slab, or handed every call one
// buffer, would have written over it.
func TestFullModeKeptDistIsStable(t *testing.T) {
	runFull(t, func(s inferlet.Session) error {
		ctx, err := support.NewContext(s, s.AvailableModels()[0])
		if err != nil {
			return err
		}
		if err := ctx.Fill("The quick brown fox jumps over the lazy dog."); err != nil {
			return err
		}
		kept, err := ctx.NextDist()
		if err != nil {
			return err
		}
		toks, probs := slices.Clone(kept.Tokens), slices.Clone(kept.Probs)
		for i := 0; i < 40; i++ {
			if err := ctx.Append(toks[i%len(toks)]); err != nil {
				return err
			}
			if _, err := ctx.NextDist(); err != nil {
				return err
			}
		}
		if !slices.Equal(kept.Tokens, toks) || !slices.Equal(kept.Probs, probs) {
			t.Error("a kept distribution changed under 40 later get_next_dist calls")
		}
		return ctx.Drop()
	})
}

// TestFullDecodeStepAllocations: a warm full-mode decode step —
// Context.Append plus NextDist through every layer down to the tensor
// kernels — makes at most 1/8 of an allocation, over 64 steps: the two
// slabs (ids, probabilities) its distribution is cut from, refilled once a
// page (16) of steps. A context that held more pages, and decoded behind
// them, was dropped first, so the pages the steps cross into and the
// kernels' scratch are warm.
func TestFullDecodeStepAllocations(t *testing.T) {
	const steps = 64
	if allocs := fullDecodeAllocs(t, 16, steps); allocs > steps/8 {
		t.Errorf("%d full-mode decode steps make %v allocations, want at most %d", steps, allocs, steps/8)
	}
}

// TestFullColdDecodeAllocations: the same 64 steps behind a warm-up of one
// page, so they first touch four pages and grow the kernels' scratch a
// token at a time. A page is eight allocations (its record, five slot
// arrays, one K and one V backing for all its slots) and scratch grows
// geometrically: 50 in all, where pages of 38 allocations and scratch cut
// to the exact size made 426.
func TestFullColdDecodeAllocations(t *testing.T) {
	const steps = 64
	bound := 50.0
	if raceBuild {
		bound++ // the race detector's instrumentation adds one
	}
	if allocs := fullDecodeAllocs(t, 1, steps); allocs > bound {
		t.Errorf("%d cold full-mode decode steps make %v allocations, want at most %v", steps, allocs, bound)
	}
}

// raceBuild is set in a build with the race detector (race_test.go).
var raceBuild bool

// fullDecodeAllocs counts the allocations of steps decode steps of a
// 4-page full-mode context, run after a context of warm pages decoded a
// step behind them and was dropped.
func fullDecodeAllocs(t *testing.T, warm, steps int) float64 {
	allocs := -1.0
	runFull(t, func(s inferlet.Session) error {
		w, err := decodingContext(s, warm)
		if err == nil {
			err = w.Append(7) // a step behind all warm pages
		}
		if err == nil {
			_, err = w.NextDist()
		}
		if err == nil {
			err = w.Drop()
		}
		if err != nil {
			return err
		}
		ctx, err := decodingContext(s, 4)
		// A collection cycle that overlaps the window now and then adds a
		// runtime allocation to the count (51 in about one run in 60 beside
		// a CPU-bound process): collect first and count with the collector
		// off.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs = testing.AllocsPerRun(1, func() {
			for i := 0; i < steps && err == nil; i++ {
				if err = ctx.Append(7); err == nil {
					_, err = ctx.NextDist()
				}
			}
		})
		return err
	})
	return allocs
}

// TestFullFusedStepAllocations: a warm full-mode fused step — Fused.Run and
// the Get of its sampled token — allocates only the slab its token is cut
// from, one a page (16) of steps: its input slot and the distribution it
// samples from are the runtime's.
func TestFullFusedStepAllocations(t *testing.T) {
	const steps = 64
	allocs := -1.0
	runFull(t, func(s inferlet.Session) error {
		step, err := fusedStep(s, 4)
		if err == nil {
			err = step()
		}
		allocs = testing.AllocsPerRun(1, func() {
			for i := 0; i < steps && err == nil; i++ {
				err = step()
			}
		})
		return err
	})
	if allocs > steps/16 {
		t.Errorf("%d full-mode fused steps make %v allocations, want at most %d", steps, allocs, steps/16)
	}
}
