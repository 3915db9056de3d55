package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/sim"
)

// TestWaitedRecordRecyclesOnce: a WaitDist call's record has two holders,
// the party that completes the call and the caller parked on it, and
// whichever releases it last puts it back on the free list — once, blank —
// however the wait ends: the batch completes before the caller wakes, the
// queue closes under it, the instance is aborted or the caller killed while
// parked, or the backend fails.
func TestWaitedRecordRecyclesOnce(t *testing.T) {
	type env struct {
		clock  *sim.Clock
		ctl    *Controller
		inst   *Instance
		qid    api.Queue
		waiter *sim.Proc
	}
	for _, tc := range []struct {
		name      string
		interrupt func(e *env) // runs while the caller is parked; nil: none
		inflight  bool         // the interrupt finds the call dispatched, not queued
		wantErr   error        // what WaitDist returns
		killed    bool         // the caller never returns
	}{
		{name: "completion before the wake"},
		{name: "queue closed while waiting", wantErr: api.ErrQueueClosed, interrupt: func(e *env) {
			if err := e.ctl.CloseQueue(e.inst, e.qid); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "abort while parked", killed: true, interrupt: func(e *env) {
			e.ctl.AbortInstance(e.inst, api.ErrTerminated)
		}},
		{name: "kill while parked", killed: true, interrupt: func(e *env) { e.clock.Kill(e.waiter) }},
		{name: "backend fails while waiting", inflight: true, wantErr: api.ErrReplicaLost, interrupt: func(e *env) {
			e.ctl.backend.Fail(api.ErrReplicaLost)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := sim.NewClock()
			e := &env{clock: clock, ctl: newTestController(clock, "gpu0", infer.ExecTiming, 0, OffloadConfig{})}
			ctl := e.ctl
			rec := &call{} // WaitDist takes the free list's last record
			completed := false
			ctl.backend.SetCompleteFunc(func(b *infer.Batch) {
				op := b.Op
				ctl.onBatchComplete(b)
				if op == infer.OpNextDist && tc.interrupt == nil {
					// The batch has let go; the caller, not yet woken, still
					// holds the record.
					completed = true
					if rec.waited || slices.Contains(ctl.freeCalls, rec) {
						t.Errorf("record recycled before its caller woke (waited %v)", rec.waited)
					}
				}
			})
			returned := false
			var got error
			e.waiter = clock.Go("waiter", func() {
				e.inst = ctl.RegisterInstance("a", nil, func(error) { clock.Kill(e.waiter) })
				e.qid = mustQueue(t, ctl, e.inst, "llama-1b")
				pages, err := ctl.AllocPages(e.inst, e.qid, 1)
				if err != nil {
					t.Fatal(err)
				}
				embs, err := ctl.AllocEmbeds(e.inst, e.qid, 2)
				if err != nil {
					t.Fatal(err)
				}
				if err := ctl.EmbedText(e.inst, e.qid, []int{5}, []int{0}, embs[:1]); err != nil {
					t.Fatal(err)
				}
				if err := ctl.Forward(e.inst, e.qid, api.ForwardArgs{InputEmb: embs[:1], OutputKv: pages, OutputEmb: embs[1:]}); err != nil {
					t.Fatal(err)
				}
				s, err := ctl.Synchronize(e.inst, e.qid)
				if err != nil {
					t.Fatal(err)
				}
				if err := sim.Await(s); err != nil {
					t.Fatal(err)
				}
				ctl.freeCalls = append(ctl.freeCalls, rec)
				_, got = ctl.WaitDist(e.inst, e.qid, embs[1])
				returned = true
			})
			clock.Go("interrupt", func() {
				for !rec.waited { // the caller parks as it sets it
					clock.Sleep(time.Microsecond)
				}
				if tc.inflight {
					// Past the scheduler's kick: the batch is in the
					// backend's parser or on the device.
					clock.Sleep(kickDelay + infer.IPCCrossing)
				}
				if tc.interrupt != nil {
					if returned || !rec.waited || rec.Op != infer.OpNextDist || (rec.q.inflight == 1) != tc.inflight {
						t.Fatalf("at the interrupt: returned %v, record waited %v op %v in flight %d; want a parked caller, in flight %v",
							returned, rec.waited, rec.Op, rec.q.inflight, tc.inflight)
					}
					tc.interrupt(e)
				}
				clock.Sleep(time.Second)
				if returned == tc.killed {
					t.Fatalf("caller returned %v, want %v", returned, !tc.killed)
				}
				if !tc.killed && !errors.Is(got, tc.wantErr) {
					t.Fatalf("WaitDist = %v, want %v", got, tc.wantErr)
				}
				if tc.interrupt == nil && !completed {
					t.Fatal("the get_next_dist batch never completed")
				}
				if n := count(ctl.freeCalls, rec); n != 1 {
					t.Fatalf("record on the free list %d times, want 1", n)
				}
				checkFreeCalls(t, ctl, "after the wait")
			})
			if err := clock.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func count[T comparable](s []T, v T) int {
	n := 0
	for _, x := range s {
		if x == v {
			n++
		}
	}
	return n
}
