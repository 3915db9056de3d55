package ilm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pie/api"
	"pie/inferlet"
	"pie/internal/sim"
)

func TestRetryPolicyDefaults(t *testing.T) {
	fallback := RetryPolicy{MaxAttempts: 3, Budget: 100 * time.Millisecond}

	// The zero value takes the engine-level fallback wholesale.
	got := RetryPolicy{}.withDefaults(fallback)
	if got.MaxAttempts != 3 || got.Budget != 100*time.Millisecond {
		t.Fatalf("zero policy did not take fallback: %+v", got)
	}
	if got.BaseBackoff != 2*time.Millisecond || got.MaxBackoff != 50*time.Millisecond {
		t.Fatalf("backoff defaults not applied: %+v", got)
	}
	if got.Jitter != 0.2 {
		t.Fatalf("jitter default = %v, want 0.2", got.Jitter)
	}

	// A disabled policy stays disabled even with a live fallback.
	if p := (RetryPolicy{MaxAttempts: 1}).withDefaults(fallback); p.Enabled() {
		t.Fatalf("MaxAttempts=1 policy became enabled: %+v", p)
	}

	// Clamps: MaxBackoff >= BaseBackoff, Jitter in [0, 1].
	p := RetryPolicy{MaxAttempts: 2, BaseBackoff: 8 * time.Millisecond,
		MaxBackoff: time.Millisecond, Jitter: 7}.withDefaults(RetryPolicy{})
	if p.MaxBackoff != p.BaseBackoff {
		t.Fatalf("MaxBackoff %v not raised to BaseBackoff %v", p.MaxBackoff, p.BaseBackoff)
	}
	if p.Jitter != 1 {
		t.Fatalf("jitter %v not clamped to 1", p.Jitter)
	}
	if p := (RetryPolicy{MaxAttempts: 2, Jitter: -1}).withDefaults(RetryPolicy{}); p.Jitter != 0 {
		t.Fatalf("negative jitter %v not disabled", p.Jitter)
	}
}

func TestRetryPolicyDelayDoublesAndCaps(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: 2 * time.Millisecond,
		MaxBackoff: 10 * time.Millisecond, Jitter: -1}.withDefaults(RetryPolicy{})
	want := []time.Duration{
		2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond,
		10 * time.Millisecond, 10 * time.Millisecond, // capped
	}
	for i, w := range want {
		if d := p.Delay(i+1, nil); d != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, d, w)
		}
	}
	// Huge retry counts must not overflow past the cap.
	if d := p.Delay(200, nil); d != 10*time.Millisecond {
		t.Fatalf("Delay(200) = %v, want the cap", d)
	}
}

func TestRetryPolicyJitterDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: 4 * time.Millisecond,
		MaxBackoff: 40 * time.Millisecond, Jitter: 0.25}.withDefaults(RetryPolicy{})
	seq := func(seed uint64) []time.Duration {
		rng := sim.NewRNG(seed)
		var out []time.Duration
		for retry := 1; retry <= 6; retry++ {
			out = append(out, p.Delay(retry, rng))
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed jitter diverged at retry %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	// Jitter stays inside the ±25% band around the unjittered delay.
	flat := RetryPolicy{MaxAttempts: 8, BaseBackoff: 4 * time.Millisecond,
		MaxBackoff: 40 * time.Millisecond, Jitter: -1}.withDefaults(RetryPolicy{})
	for i, d := range a {
		base := flat.Delay(i+1, nil)
		lo := time.Duration(float64(base) * 0.75)
		hi := time.Duration(float64(base) * 1.25)
		if d < lo || d > hi {
			t.Fatalf("jittered Delay(%d) = %v outside [%v, %v]", i+1, d, lo, hi)
		}
	}
	// Different seeds must actually spread (thundering-herd protection).
	if c := seq(8); a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestRetryableClassification(t *testing.T) {
	for err, want := range map[error]bool{
		api.ErrReplicaLost:                         true,
		api.ErrTransientFault:                      true,
		fmt.Errorf("wrap: %w", api.ErrReplicaLost): true,
		api.ErrAborted:                             false,
		api.ErrTerminated:                          false,
		api.ErrDeadlineExceeded:                    false,
		errors.New("some other failure"):           false,
	} {
		if got := Retryable(err); got != want {
			t.Fatalf("Retryable(%v) = %v, want %v", err, got, want)
		}
	}
}

func TestNextRetryDelayBudgetExhaustion(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseBackoff: 4 * time.Millisecond,
		MaxBackoff: 4 * time.Millisecond, Jitter: -1,
		Budget: 10 * time.Millisecond}.withDefaults(RetryPolicy{})
	h := &Handle{policy: p, retryRNG: sim.NewRNG(1), attempts: 1}

	// Two 4ms delays fit the 10ms budget; the third would overrun it.
	for i := 0; i < 2; i++ {
		d, err := h.nextRetryDelay(api.ErrReplicaLost)
		if err != nil || d != 4*time.Millisecond {
			t.Fatalf("retry %d: delay %v err %v, want 4ms grant", i+1, d, err)
		}
		h.attempts++
	}
	_, err := h.nextRetryDelay(api.ErrReplicaLost)
	if !errors.Is(err, api.ErrRetryBudgetExhausted) {
		t.Fatalf("over-budget retry error = %v, want ErrRetryBudgetExhausted", err)
	}
	// The exhaustion error keeps the original cause visible.
	if !errors.Is(err, api.ErrReplicaLost) {
		t.Fatalf("exhaustion error %v lost its cause", err)
	}
}

func TestNextRetryDelayFinality(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond,
		Jitter: -1}.withDefaults(RetryPolicy{})

	// Non-retryable causes surface unchanged.
	h := &Handle{policy: p, retryRNG: sim.NewRNG(1), attempts: 1}
	if _, err := h.nextRetryDelay(api.ErrAborted); !errors.Is(err, api.ErrAborted) {
		t.Fatalf("abort cause came back as %v", err)
	}

	// Attempts at the limit surface the cause, not an exhaustion wrapper.
	h = &Handle{policy: p, retryRNG: sim.NewRNG(1), attempts: 2}
	_, err := h.nextRetryDelay(api.ErrReplicaLost)
	if !errors.Is(err, api.ErrReplicaLost) || errors.Is(err, api.ErrRetryBudgetExhausted) {
		t.Fatalf("attempt-capped retry error = %v, want bare cause", err)
	}

	// A disabled policy never grants a delay.
	h = &Handle{policy: RetryPolicy{}, attempts: 1}
	if d, err := h.nextRetryDelay(api.ErrReplicaLost); err == nil || d != 0 {
		t.Fatalf("disabled policy granted a retry: %v %v", d, err)
	}
}

// TestAbortLatchesBetweenRetries: the replica dies under a launch whose
// retry policy backs off for a second, and the client aborts the handle
// during the backoff. With no live instance the abort latches, and the
// requeue daemon resolves the handle with it instead of placing another
// attempt; the dead attempt's pages are back in the pools.
func TestAbortLatchesBetweenRetries(t *testing.T) {
	clock := sim.NewClock()
	m := oneReplicaILM(clock)
	ctl := m.place.(*onePlacer).ctl
	hold := inferlet.Program{Name: "hold", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		q, err := s.Open("llama-1b")
		if err != nil {
			return err
		}
		a, err := q.Alloc()
		if err != nil {
			return err
		}
		if _, err := a.Pages(4); err != nil {
			return err
		}
		_, err = s.Receive().Get()
		return err
	}}
	if err := m.Register(hold); err != nil {
		t.Fatal(err)
	}
	var held, before, after int
	var aborted bool
	var waitErr error
	clock.Go("client", func() {
		h, err := m.Launch(LaunchSpec{Program: "hold", Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, Jitter: -1}})
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		clock.Sleep(time.Millisecond)
		held, _ = ctl.PoolStats("llama-1b")
		ctl.AbortAllInstances(api.ErrReplicaLost) // the replica dies under it
		clock.Sleep(time.Millisecond)             // a millisecond into the backoff
		before = h.Attempts()
		aborted = h.Abort()
		waitErr = h.Wait()
		after = h.Attempts()
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if held != 4 {
		t.Fatalf("the attempt held %d pages before the crash, want 4", held)
	}
	if !aborted || !errors.Is(waitErr, api.ErrAborted) {
		t.Fatalf("Abort = %v, Wait = %v; want a latched abort and ErrAborted", aborted, waitErr)
	}
	if before != 1 || after != 1 {
		t.Fatalf("attempts %d before the abort, %d after; want 1 and 1", before, after)
	}
	if m.Aborts != 1 || m.Requeues != 1 || m.Retries != 0 {
		t.Fatalf("aborts %d requeues %d retries %d, want 1/1/0", m.Aborts, m.Requeues, m.Retries)
	}
	if pages, _ := ctl.PoolStats("llama-1b"); pages != 0 {
		t.Fatalf("%d pages still held", pages)
	}
	if embeds, _ := ctl.EmbedPoolStats("llama-1b"); embeds != 0 {
		t.Fatalf("%d embeds still held", embeds)
	}
}
