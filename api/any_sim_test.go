package api_test

// Any over runtime (sim) futures: the relay-parking path, races decided
// by virtual time, and ties where several futures complete on the same
// tick. External test package: internal/sim imports api, so these cannot
// live inside package api.

import (
	"testing"
	"time"

	"pie/api"
	"pie/internal/sim"
)

func TestAnySameTickTieBreaksInArgumentOrder(t *testing.T) {
	clock := sim.NewClock()
	f1 := sim.NewFuture[string](clock)
	f2 := sim.NewFuture[string](clock)
	var got string
	clock.Go("resolver", func() {
		clock.Sleep(time.Millisecond)
		// Both futures complete at the same virtual instant, before the
		// waiter can observe either: the tie must break in argument
		// order, not completion-callback order.
		f2.Resolve("second")
		f1.Resolve("first")
	})
	clock.Go("waiter", func() {
		v, err := api.Any[string](f1, f2).Get()
		if err != nil {
			t.Errorf("Any.Get: %v", err)
		}
		got = v
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "first" {
		t.Fatalf("same-tick Any winner = %q, want argument-order %q", got, "first")
	}
}

func TestAnyLaterArgumentCanWinByTime(t *testing.T) {
	clock := sim.NewClock()
	slow := sim.NewFuture[string](clock)
	fast := sim.NewFuture[string](clock)
	var got string
	var elapsed time.Duration
	clock.Go("slow", func() {
		clock.Sleep(10 * time.Millisecond)
		slow.Resolve("slow")
	})
	clock.Go("fast", func() {
		clock.Sleep(time.Millisecond)
		fast.Resolve("fast")
	})
	clock.Go("waiter", func() {
		v, _ := api.Any[string](slow, fast).Get()
		got = v
		elapsed = clock.Now()
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "fast" {
		t.Fatalf("Any winner = %q, want %q", got, "fast")
	}
	if elapsed >= 10*time.Millisecond {
		t.Fatalf("Any waited %v: it blocked on the slow future instead of parking on the relay", elapsed)
	}
}

func TestAnyOverAlreadyResolvedRuntimeFuture(t *testing.T) {
	clock := sim.NewClock()
	done := sim.NewFuture[string](clock)
	done.Resolve("done")
	pending := sim.NewFuture[string](clock)
	var got string
	clock.Go("waiter", func() {
		v, err := api.Any[string](pending, done).Get()
		if err != nil {
			t.Errorf("Any.Get: %v", err)
		}
		got = v
		// Unblock the run: nothing ever resolves `pending`.
		pending.Resolve("late")
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "done" {
		t.Fatalf("Any over resolved future = %q, want %q", got, "done")
	}
}

func TestAnyOfNestedCombinatorsParks(t *testing.T) {
	clock := sim.NewClock()
	a := sim.NewFuture[int](clock)
	b := sim.NewFuture[int](clock)
	c := sim.NewFuture[int](clock)
	var got []int
	clock.Go("resolvers", func() {
		clock.Sleep(time.Millisecond)
		a.Resolve(1)
		b.Resolve(2)
		clock.Sleep(time.Hour) // c never resolves in useful time
		c.Resolve(3)
	})
	clock.Go("waiter", func() {
		pair := api.All[int](a, b)
		single := api.All[int](c)
		v, err := api.Any[[]int](pair, single).Get()
		if err != nil {
			t.Errorf("Any.Get: %v", err)
		}
		got = v
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("nested Any winner = %v, want [1 2]", got)
	}
}
