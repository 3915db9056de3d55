package core

import (
	"errors"
	"testing"
	"time"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/sim"
)

// pinDeviceTier fills llama-1b's 4-page device tier with one instance's
// pages and returns that instance, its queue and its page handles. The
// model's host tier (ratio 1) keeps total capacity free, so an allocation
// fails only for want of device room.
func pinDeviceTier(t *testing.T, ctl *Controller) (*Instance, api.Queue, []api.KvPage) {
	t.Helper()
	inst := ctl.RegisterInstance("holder", nil, nil)
	q := mustQueue(t, ctl, inst, "llama-1b")
	pages, err := ctl.AllocPages(inst, q, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	return inst, q, pages
}

// TestAllocWaitsForTheCompletionWave: with every device page pinned by an
// in-flight forward, AllocPages waits in FIFO order and gets room exactly
// kickDelay after that forward completes; a second waiter gets room only
// once the first has, kickDelay after it.
func TestAllocWaitsForTheCompletionWave(t *testing.T) {
	runCtl(t, infer.ExecTiming, 4, OffloadConfig{HostRatio: 1}, func(clock *sim.Clock, ctl *Controller) {
		m := ctl.models["llama-1b"]
		holder, q, pages := pinDeviceTier(t, ctl)
		embs, err := ctl.AllocEmbeds(holder, q, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.EmbedText(holder, q, []int{5}, []int{0}, embs); err != nil {
			t.Fatal(err)
		}
		done, err := issued(ctl, ctl.Forward(holder, q, api.ForwardArgs{InputKv: pages, InputEmb: embs, OutputKv: pages[3:]}))
		if err != nil {
			t.Fatal(err)
		}
		var landed time.Duration
		var got []string
		gotAt := map[string]time.Duration{}
		g := sim.NewGroup(clock)
		for _, name := range []string{"w1", "w2"} {
			g.Go(name, func() {
				inst := ctl.RegisterInstance(name, nil, nil)
				wq := mustQueue(t, ctl, inst, "llama-1b")
				if _, err := ctl.AllocPages(inst, wq, nil, 1); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				got = append(got, name)
				gotAt[name] = clock.Now()
			})
			clock.Sleep(8 * time.Microsecond) // past two control calls: w1 waits first
		}
		if m.room.Len() != 2 {
			t.Fatalf("%d calls wait for room, want 2", m.room.Len())
		}
		if err := sim.Await(done); err != nil {
			t.Fatal(err)
		}
		landed = clock.Now()
		g.Wait()
		swap := m.rt.Spec.SwapCost(1, m.rt.Info.PageSize)
		if len(got) != 2 || got[0] != "w1" {
			t.Fatalf("room went to %v, want w1 first", got)
		}
		if want := landed + kickDelay + swap; gotAt["w1"] != want {
			t.Fatalf("w1 got room at %v, want %v (forward landed at %v, + kickDelay, + one page's swap)", gotAt["w1"], want, landed)
		}
		// w1's success is w2's turn, once w1's own follow-up calls had their
		// kickDelay to pin what they need.
		if want := landed + 2*kickDelay + swap; gotAt["w2"] != want {
			t.Fatalf("w2 got room at %v, want %v (kickDelay after w1 did)", gotAt["w2"], want)
		}
		ctl.AbortAllInstances(api.ErrTerminated)
	})
}

// TestAllocRoomWaitTimesOut: when nothing ever unpins the device tier, a
// waiting AllocPages fails with ErrOutOfResources exactly roomWaitLimit
// after its first try, and leaves the list.
func TestAllocRoomWaitTimesOut(t *testing.T) {
	runCtl(t, infer.ExecTiming, 4, OffloadConfig{HostRatio: 1}, func(clock *sim.Clock, ctl *Controller) {
		m := ctl.models["llama-1b"]
		holder, _, pages := pinDeviceTier(t, ctl)
		for _, h := range pages {
			m.pages.pin(holder.pages.get(uint64(h)).phys) // a call that never completes
		}
		inst := ctl.RegisterInstance("waiter", nil, nil)
		q := mustQueue(t, ctl, inst, "llama-1b")
		start := clock.Now()
		_, err := ctl.AllocPages(inst, q, nil, 1)
		if !errors.Is(err, api.ErrOutOfResources) {
			t.Fatalf("AllocPages = %v, want ErrOutOfResources", err)
		}
		tried := start + controlCallBase + time.Duration(len(ctl.instances))*controlCallPerInst
		if got := clock.Now(); got != tried+roomWaitLimit {
			t.Fatalf("gave up at %v, want %v (first try at %v, + %v)", got, tried+roomWaitLimit, tried, roomWaitLimit)
		}
		if m.room.Len() != 0 {
			t.Fatal("a timed-out call stayed on the room list")
		}
		for _, h := range pages {
			m.pages.unpin(holder.pages.get(uint64(h)).phys)
		}
		ctl.AbortAllInstances(api.ErrTerminated)
	})
}
