package infer

import (
	"errors"
	"slices"
	"testing"
	"time"

	"pie/internal/model"
	"pie/internal/sim"
)

// copyBatch is n copy_kvpage calls: a cheap kernel that touches nothing.
func copyBatch(rt *ModelRuntime, n int) *Batch {
	b := &Batch{Op: OpCopyKv, Model: rt}
	for i := 0; i < n; i++ {
		b.Calls = append(b.Calls, &Call{Op: OpCopyKv, Model: rt, SrcPage: rt.Page(0), DstPage: rt.Page(1)})
	}
	return b
}

// TestBackendIngressSerialisesAndOverlaps: the parser takes one batch at a
// time, in submission order, whatever the device is doing — batches
// submitted while a kernel runs (K-only, T-only and Eager dispatch do that)
// are parsed under it and queue on the device — and a batch costs three
// events from Submit to completion.
func TestBackendIngressSerialisesAndOverlaps(t *testing.T) {
	rt := testRuntime(ExecTiming)
	clock := sim.NewClock()
	be := NewBackend(clock, "t")
	var overheads []time.Duration
	a, b, c := copyBatch(rt, 10), copyBatch(rt, 5), copyBatch(rt, 1)
	cost := a.Cost()
	if cost < 20*time.Microsecond || b.Cost() != cost || c.Cost() != cost {
		t.Fatalf("kernel costs %v %v %v: the test wants one price, longer than the parses", cost, b.Cost(), c.Cost())
	}
	done := map[*Batch]time.Duration{}
	var order []*Batch
	be.SetCompleteFunc(func(x *Batch) {
		done[x] = clock.Now()
		order = append(order, x)
		for range x.Calls { // the control layer's trace.Overhead span, per call
			overheads = append(overheads, x.ParsedAt+2*IPCCrossing-x.SubmittedAt)
		}
	})
	const parse = DeserPerCall
	clock.Go("driver", func() {
		before := clock.Events()
		be.Submit(a)
		be.Submit(b) // queues for the parser behind a
		clock.Sleep(10*parse + cost/2)
		if !be.Device.Busy() {
			t.Error("a's kernel should be running")
		}
		be.Submit(c) // parser idle, device busy
		clock.Sleep(time.Second)
		if n := clock.Events() - before; n != 3*3+2 {
			t.Errorf("three batches and two sleeps took %d events, want 11", n)
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	aEnd := 10*parse + cost
	want := map[*Batch]time.Duration{a: aEnd + IPCCrossing, b: aEnd + cost + IPCCrossing, c: aEnd + 2*cost + IPCCrossing}
	for _, x := range []*Batch{a, b, c} {
		if done[x] != want[x] {
			t.Errorf("batch of %d completed at %v, want %v", len(x.Calls), done[x], want[x])
		}
	}
	if !slices.Equal(order, []*Batch{a, b, c}) {
		t.Error("batches completed out of submission order")
	}
	// Fig. 10's overhead: wait for the parser + parse + both IPC legs, once per call.
	var wantOv []time.Duration
	for i := 0; i < 10; i++ {
		wantOv = append(wantOv, 10*parse+2*IPCCrossing)
	}
	for i := 0; i < 5; i++ {
		wantOv = append(wantOv, 15*parse+2*IPCCrossing)
	}
	wantOv = append(wantOv, parse+2*IPCCrossing)
	if !slices.Equal(overheads, wantOv) {
		t.Errorf("overheads %v, want %v", overheads, wantOv)
	}
	if be.BatchesRun != 3 || be.CallsRun != 16 || be.Device.Kernels() != 3 {
		t.Errorf("stats: %d batches, %d calls, %d kernels", be.BatchesRun, be.CallsRun, be.Device.Kernels())
	}
}

// TestBackendCloseDropsUnparsedBatches: Close stops the ingress where it is.
// A batch past the parser completes; one still in or before it, and any
// submitted later, never reaches the device.
func TestBackendCloseDropsUnparsedBatches(t *testing.T) {
	rt := testRuntime(ExecTiming)
	clock := sim.NewClock()
	be := NewBackend(clock, "t")
	var completed []*Batch
	be.SetCompleteFunc(func(x *Batch) { completed = append(completed, x) })
	inFlight, parsing, late := copyBatch(rt, 1), copyBatch(rt, 100), copyBatch(rt, 1)
	clock.Go("driver", func() {
		be.Submit(inFlight)
		clock.Sleep(2 * DeserPerCall) // on the device
		be.Submit(parsing)
		clock.Sleep(DeserPerCall)
		be.Close()
		be.Submit(late)
		clock.Sleep(time.Second)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(completed, []*Batch{inFlight}) || be.Device.Kernels() != 1 {
		t.Fatalf("%d batches completed on %d kernels, want the one in flight at Close", len(completed), be.Device.Kernels())
	}
}

// TestBackendDeviceFailureLosesTheBatch: the batch whose kernel the device
// loses never responds, nor does anything behind it.
func TestBackendDeviceFailureLosesTheBatch(t *testing.T) {
	rt := testRuntime(ExecTiming)
	clock := sim.NewClock()
	be := NewBackend(clock, "t")
	be.SetCompleteFunc(func(*Batch) { t.Error("a batch completed on a dead device") })
	in := rt.Embed(0)
	in.Valid = true
	fwd := &Batch{Op: OpForward, Model: rt, Calls: []*Call{{Op: OpForward, Model: rt, Inputs: []*model.EmbedSlot{in}}}}
	clock.Go("driver", func() {
		be.Submit(fwd)
		be.Submit(copyBatch(rt, 1))
		clock.Sleep(time.Millisecond) // mid-forward
		be.Device.Fail()
		clock.Sleep(time.Second)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if be.BatchesRun != 0 || be.Device.Idle() {
		t.Fatalf("dead device: %d batches run, idle %v", be.BatchesRun, be.Device.Idle())
	}
}

// TestBackendFailFailsWhatTheDeviceHolds: Fail hands every batch the device
// will never complete — the one executing, the one queued behind it, one
// still in the parser and one submitted later — to the completion callback,
// each call carrying the error and its typed future failed with it. A batch
// already on its way back completes as usual.
func TestBackendFailFailsWhatTheDeviceHolds(t *testing.T) {
	rt := testRuntime(ExecTiming)
	clock := sim.NewClock()
	be := NewBackend(clock, "t")
	lost := errors.New("replica lost")
	var completed []*Batch
	be.SetCompleteFunc(func(x *Batch) { completed = append(completed, x) })
	in := rt.Embed(0)
	in.Valid = true
	fwd := &Batch{Op: OpForward, Model: rt, Calls: []*Call{{Op: OpForward, Model: rt, Inputs: []*model.EmbedSlot{in}}}}
	dist := &Batch{Op: OpNextDist, Model: rt, Calls: []*Call{armed(&Call{Op: OpNextDist, Model: rt, DistOf: in}, clock)}}
	done, queued, parsing, late := copyBatch(rt, 1), copyBatch(rt, 1), copyBatch(rt, 100), copyBatch(rt, 1)
	var distErr error
	clock.Go("driver", func() {
		for _, b := range []*Batch{done, fwd, dist, queued} {
			be.Submit(b)
		}
		// done is on the wire back, fwd executing, dist and queued behind it.
		clock.Sleep(DeserPerCall + done.Cost() + time.Microsecond)
		be.Submit(parsing)
		be.Fail(lost)
		be.Submit(late)
		_, distErr = sim.Hold(&dist.Calls[0].Res, &dist.Calls[0].Dist).Get()
		clock.Sleep(time.Second)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []*Batch{fwd, dist, queued, done, parsing, late}; !slices.Equal(completed, want) {
		t.Fatalf("completed %v, want %v", completed, want)
	}
	for _, b := range []*Batch{fwd, dist, queued, parsing, late} {
		if b.Calls[0].Err != lost {
			t.Errorf("a lost %v call carries %v", b.Op, b.Calls[0].Err)
		}
	}
	if done.Calls[0].Err != nil || distErr != lost {
		t.Errorf("the finished batch carries %v; the dist future failed with %v", done.Calls[0].Err, distErr)
	}
	if be.BatchesRun != 1 {
		t.Errorf("%d batches ran, want the one finished before Fail", be.BatchesRun)
	}
}

// TestNextForwardDoneFollowsTheRhythm scripts forwards and dists (zero-call
// batches, which parse at once) onto one backend and checks the predicted
// completion of the first forward to start at or after an arrival: none
// yet, arrival before the next start, after it (one period on), an idle
// device, a rhythm broken by a drain, and a slowdown stretching the period.
func TestNextForwardDoneFollowsTheRhythm(t *testing.T) {
	rt := testRuntime(ExecTiming)
	clock := sim.NewClock()
	be := NewBackend(clock, "t")
	done := map[*Batch]time.Duration{}
	be.SetCompleteFunc(func(x *Batch) { done[x] = clock.Now() })
	fwd := func() *Batch { return &Batch{Op: OpForward, Model: rt} }
	dist := func() *Batch { return &Batch{Op: OpNextDist, Model: rt} }
	F, D := fwd().Cost(), dist().Cost()
	check := func(what string, at, want time.Duration) {
		t.Helper()
		if got := be.NextForwardDone(at); got != want {
			t.Errorf("%s: NextForwardDone(%v) = %v, want %v", what, at, got, want)
		}
	}
	var fwd2, fwd5 *Batch
	const T3, T4 = 100 * time.Millisecond, 200 * time.Millisecond
	clock.Go("script", func() {
		check("no forward yet", 5*time.Millisecond, 5*time.Millisecond)
		// Forward, dist, forward: the second starts when the dist ahead of it
		// ends, one gap D after the first, and ends at 2F+D.
		fwd2 = fwd()
		be.Submit(fwd())
		be.Submit(dist())
		be.Submit(fwd2)
		clock.Yield()
		check("arrival before the next start", time.Millisecond, 2*F+2*D+F)
		check("arrival after the next start", 2*F+2*D+1, 3*F+3*D+F)
		be.Device.SetSlowdown(2) // the next forward is priced as it will run
		check("slowed, before the next start", time.Millisecond, 2*F+2*D+2*F)
		check("slowed, after the next start", 2*F+2*D+1, 2*F+2*D+(2*F+D)+2*F)
		be.Device.SetSlowdown(1)

		clock.Sleep(3 * F)
		check("idle device", 3*F+time.Millisecond, 3*F+time.Millisecond+F)

		// A forward after a drain longer than a forward: no rhythm, so the
		// next one follows it directly.
		clock.Sleep(T3 - clock.Now())
		be.Submit(fwd())
		be.Submit(dist())
		clock.Yield()
		check("broken rhythm", T3+time.Millisecond, T3+2*F)

		// A slowed device runs both kernels and the period at twice the cost.
		clock.Sleep(T4 - clock.Now())
		be.Device.SetSlowdown(2)
		fwd5 = fwd()
		be.Submit(fwd())
		be.Submit(dist())
		be.Submit(fwd5)
		clock.Yield()
		end5 := T4 + 4*F + 2*D
		check("slowed rhythm, before the next start", T4+time.Millisecond, end5+2*D+2*F)
		check("slowed rhythm, after the next start", end5+2*D+1, end5+2*D+(2*F+2*D)+2*F)
		clock.Sleep(time.Second)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	// The recorded ends are the device's.
	if want := 2*F + D + IPCCrossing; done[fwd2] != want {
		t.Errorf("second forward completed at %v, want %v", done[fwd2], want)
	}
	if want := T4 + 4*F + 2*D + IPCCrossing; done[fwd5] != want {
		t.Errorf("slowed forward completed at %v, want %v", done[fwd5], want)
	}
}
