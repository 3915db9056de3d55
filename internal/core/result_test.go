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

// TestWaitedRecordRecyclesOnce: the record of a call whose result is
// waited on has two holders, the party that completes the call and the Get
// parked on its result, and whichever lets go last puts it back on the free
// list — once, blank — however the wait ends: the batch completes before
// the reader wakes, the queue closes under it (failPending), the instance
// is aborted or the reader killed while parked, or the backend fails.
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
		wantErr   error        // what Get returns
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
			rec := &call{ctl: ctl} // NextDist takes the free list's last record
			rec.Res.Init(clock, rec)
			completed := false
			ctl.backend.SetCompleteFunc(func(b *infer.Batch) {
				op := b.Op
				ctl.onBatchComplete(b)
				if op == infer.OpNextDist && tc.interrupt == nil {
					// The batch has let go; the reader, not yet woken, still
					// holds the record.
					completed = true
					if slices.Contains(ctl.freeCalls, rec) {
						t.Error("record recycled before its reader woke")
					}
				}
			})
			returned := false
			var got error
			e.waiter = clock.Go("waiter", func() {
				e.inst = ctl.RegisterInstance("a", nil, killer(func(error) { clock.Kill(e.waiter) }))
				e.qid = mustQueue(t, ctl, e.inst, "llama-1b")
				pages, err := ctl.AllocPages(e.inst, e.qid, nil, 1)
				if err != nil {
					t.Fatal(err)
				}
				embs, err := ctl.AllocEmbeds(e.inst, e.qid, nil, 2)
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
				if _, err := s.Get(); err != nil {
					t.Fatal(err)
				}
				ctl.freeCalls = append(ctl.freeCalls, rec)
				r, err := ctl.NextDist(e.inst, e.qid, embs[1])
				if err != nil {
					t.Fatal(err)
				}
				_, got = r.Get()
				returned = true
			})
			clock.Go("interrupt", func() {
				for rec.Op != infer.OpNextDist { // the reader parks as it issues it
					clock.Sleep(time.Microsecond)
				}
				if tc.inflight {
					// Past the scheduler's kick: the batch is in the
					// backend's parser or on the device.
					clock.Sleep(kickDelay + infer.IPCCrossing)
				}
				if tc.interrupt != nil {
					if returned || rec.Op != infer.OpNextDist || (rec.q.inflight == 1) != tc.inflight {
						t.Fatalf("at the interrupt: returned %v, record op %v in flight %d; want a parked reader, in flight %v",
							returned, rec.Op, rec.q.inflight, tc.inflight)
					}
					tc.interrupt(e)
				}
				clock.Sleep(time.Second)
				if returned == tc.killed {
					t.Fatalf("caller returned %v, want %v", returned, !tc.killed)
				}
				if !tc.killed && !errors.Is(got, tc.wantErr) {
					t.Fatalf("Get = %v, want %v", got, tc.wantErr)
				}
				if tc.interrupt == nil && !completed {
					t.Fatal("the get_next_dist batch never completed")
				}
				if err := ctl.Check(); !slices.Contains(ctl.freeCalls, rec) || err != nil { // Check: listed once, blank
					t.Fatalf("record on the free list: %v, %v; want true, nil", slices.Contains(ctl.freeCalls, rec), err)
				}
			})
			if err := clock.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResultIsReadOnce: a result's record goes back to the free list once
// the batch and the first Get have both let go, and the next call reuses
// it. A second Get of the first result then fails with api.ErrResultRead,
// not with the next call's distribution, and the first result stays done.
// A result nobody reads keeps its record off the free list.
func TestResultIsReadOnce(t *testing.T) {
	runCtl(t, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		inst := ctl.RegisterInstance("a", nil, nil)
		qid := mustQueue(t, ctl, inst, "llama-1b")
		pages, _ := ctl.AllocPages(inst, qid, nil, 1)
		embs, err := ctl.AllocEmbeds(inst, qid, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.EmbedText(inst, qid, []int{5}, []int{0}, embs[:1]); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Forward(inst, qid, api.ForwardArgs{InputEmb: embs[:1], OutputKv: pages, OutputEmb: embs[1:]}); err != nil {
			t.Fatal(err)
		}
		next := func() sim.Result[api.Dist] {
			t.Helper()
			r, err := ctl.NextDist(inst, qid, embs[1])
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		first := next()
		d1, err := first.Get()
		if err != nil {
			t.Fatal(err)
		}
		rec := ctl.freeCalls[len(ctl.freeCalls)-1]
		second := next()
		if ctl.freeCalls[len(ctl.freeCalls)-1] == rec {
			t.Fatal("the next call did not reuse the read record")
		}
		d2, err := second.Get()
		if err != nil || slices.Equal(d1.Tokens, d2.Tokens) {
			t.Fatalf("second call: %v, %v; want a distribution of its own", d2.Tokens, err)
		}
		if _, err := first.Get(); !errors.Is(err, api.ErrResultRead) || !first.Done() {
			t.Fatalf("first result read again: %v, done %v; want api.ErrResultRead, done", err, first.Done())
		}
		free := len(ctl.freeCalls)
		unread := next()
		clock.Sleep(time.Second)
		if !unread.Done() || len(ctl.freeCalls) != free-1 {
			t.Fatalf("unread result: done %v, free records %d -> %d; want done, one fewer", unread.Done(), free, len(ctl.freeCalls))
		}
		ctl.ReleaseInstance(inst)
	})
}

// killer is an instance owner that runs a function when the instance is
// terminated.
type killer func(reason error)

func (k killer) Terminated(reason error) { k(reason) }
