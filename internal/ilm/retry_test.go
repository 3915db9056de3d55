package ilm

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"pie/api"
	"pie/inferlet"
	"pie/internal/core"
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
	h := &Handle{policy: p, retryRNG: sim.MakeRNG(1), attempts: 1}

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
	h := &Handle{policy: p, retryRNG: sim.MakeRNG(1), attempts: 1}
	if _, err := h.nextRetryDelay(api.ErrAborted); !errors.Is(err, api.ErrAborted) {
		t.Fatalf("abort cause came back as %v", err)
	}

	// Attempts at the limit surface the cause, not an exhaustion wrapper.
	h = &Handle{policy: p, retryRNG: sim.MakeRNG(1), attempts: 2}
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
// requeue process resolves the handle with it instead of placing another
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
		h := new(Handle)
		if err := m.Launch(h, LaunchSpec{Program: "hold", Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, Jitter: -1}}); err != nil {
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
	if err := ctl.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaLossBeforeFirstDispatchRequeues: the replica dies before a
// retried launch's first attempt has run. The attempt unwinds at its first
// wait instead of parking there for good, the launch requeues, and the
// second attempt, waiting in Receive, serves it.
func TestReplicaLossBeforeFirstDispatchRequeues(t *testing.T) {
	clock := sim.NewClock()
	m := oneReplicaILM(clock)
	ctl := m.place.(*onePlacer).ctl
	listen := inferlet.Program{Name: "listen", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		_, err := s.Receive().Get()
		return err
	}}
	if err := m.Register(listen); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	var attempts int
	clock.Go("client", func() {
		h := new(Handle)
		if err := m.Launch(h, LaunchSpec{Program: "listen", Retry: RetryPolicy{MaxAttempts: 2, Jitter: -1}}); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		ctl.AbortAllInstances(api.ErrReplicaLost) // before the attempt first runs
		for i := 0; i < 100 && (h.Attempts() < 2 || h.requeuing); i++ {
			clock.Sleep(time.Millisecond)
		}
		attempts = h.Attempts() // the second attempt waits in Receive
		h.Send("done")
		waitErr = h.Wait()
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if waitErr != nil || attempts != 2 {
		t.Fatalf("Wait = %v after %d attempts, want nil after 2", waitErr, attempts)
	}
	if m.Requeues != 1 || m.Aborts != 0 {
		t.Fatalf("requeues %d aborts %d, want 1/0", m.Requeues, m.Aborts)
	}
	if err := ctl.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaLossBeforeFirstDispatchKeepsTheMessage: the replica dies and
// the client sends before a retried launch's first attempt has run. The
// killed attempt unwinds in Receive without taking the buffered message,
// the launch requeues, and the second attempt receives it.
func TestReplicaLossBeforeFirstDispatchKeepsTheMessage(t *testing.T) {
	clock := sim.NewClock()
	m := oneReplicaILM(clock)
	ctl := m.place.(*onePlacer).ctl
	var got []string
	listen := inferlet.Program{Name: "listen", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		msg, err := s.Receive().Get()
		got = append(got, msg)
		return err
	}}
	if err := m.Register(listen); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	var attempts int
	clock.Go("client", func() {
		h := new(Handle)
		if err := m.Launch(h, LaunchSpec{Program: "listen", Retry: RetryPolicy{MaxAttempts: 2, Jitter: -1}}); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		ctl.AbortAllInstances(api.ErrReplicaLost) // before the attempt first runs
		h.Send("hello")
		waitErr = h.Wait()
		attempts = h.Attempts()
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if waitErr != nil || attempts != 2 || !slices.Equal(got, []string{"hello"}) {
		t.Fatalf("Wait = %v after %d attempts, received %q; want nil after 2, [hello]", waitErr, attempts, got)
	}
	if m.Requeues != 1 || m.Aborts != 0 {
		t.Fatalf("requeues %d aborts %d, want 1/0", m.Requeues, m.Aborts)
	}
	if err := ctl.Check(); err != nil {
		t.Fatal(err)
	}
}

// turnPlacer places each launch attempt on the next of its controllers, in
// turn.
type turnPlacer struct {
	fakePlacer
	ctls []*core.Controller
	n    int
}

func (p *turnPlacer) Place(string, string, []string, uint64) (*core.Controller, error) {
	ctl := p.ctls[p.n%len(p.ctls)]
	p.n++
	return ctl, nil
}

// retryOnce launches program with args on an ILM of the given number of
// replicas, each attempt on the next replica in turn, whose launches retry
// once, and kills the first replica's instances 1ms in, so the program's
// first attempt dies and a second one runs to its end. mutate runs in the
// client right after Launch returns.
func retryOnce(t *testing.T, replicas int, program inferlet.Program, args []string, mutate func()) *Handle {
	t.Helper()
	clock := sim.NewClock()
	placer := &turnPlacer{}
	var info api.ModelInfo
	for i := range replicas {
		var ctl *core.Controller
		ctl, info = timingController(clock, fmt.Sprintf("gpu%d", i))
		placer.ctls = append(placer.ctls, ctl)
	}
	m := New(clock, placer, nil, []api.ModelInfo{info})
	if err := m.Register(program); err != nil {
		t.Fatal(err)
	}
	h := new(Handle)
	clock.Go("client", func() {
		if err := m.Launch(h, LaunchSpec{Program: program.Name, Args: args, Retry: RetryPolicy{MaxAttempts: 2, Jitter: -1}}); err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		mutate()
		clock.Sleep(time.Millisecond)
		placer.ctls[0].AbortAllInstances(api.ErrReplicaLost)
		if err := h.Wait(); err != nil {
			t.Errorf("the retried attempt: %v", err)
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if h.Attempts() != 2 || m.Requeues != 1 {
		t.Fatalf("%d attempts, %d requeues; want 2 and 1", h.Attempts(), m.Requeues)
	}
	if h.ctl != placer.ctls[1%replicas] {
		t.Fatalf("the retried attempt did not run on replica %d", 1%replicas)
	}
	return h
}

// TestRetryReadsTheLaunchArgs: a launch keeps its own copy of its
// arguments, so a client that reuses its slice after Launch returns does
// not change what a retried attempt reads. GetArg hands that copy out with
// its capacity clipped: an attempt that appends to what it got changes
// neither its next GetArg nor what the retried attempt reads.
func TestRetryReadsTheLaunchArgs(t *testing.T) {
	var got [][]string
	hold := inferlet.Program{Name: "hold", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		got = append(got, s.GetArg())
		if len(got) == 1 {
			args := s.GetArg()
			if grown := append(args, "appended"); cap(args) != len(args) || &grown[0] == &args[0] {
				return fmt.Errorf("GetArg has capacity %d for %d args: an append writes into the launch's copy", cap(args), len(args))
			}
			if again := s.GetArg(); !slices.Equal(again, args) {
				return fmt.Errorf("after an append, GetArg = %q, want %q", again, args)
			}
			_, err := s.Receive().Get() // until the replica dies
			return err
		}
		return nil
	}}
	args := []string{"prompt", "8"}
	retryOnce(t, 1, hold, args, func() { args[0], args[1] = "reused", "buffer" })
	want := []string{"prompt", "8"}
	if len(got) != 2 || !slices.Equal(got[0], want) || !slices.Equal(got[1], want) {
		t.Fatalf("the attempts read %q, want %q twice", got, want)
	}
}

// TestRetryStartsAFreshSession: a handle keeps its session and starts it
// over in place for each attempt. A retried attempt sees the Random stream
// a fresh launch sees, none of the earlier attempt's subscriptions, and the
// earlier attempt's queue closed: every call on it fails before it reaches a
// controller, so it cannot touch the exports of the replica the retry runs
// on, that one or another. The logs run on across attempts.
func TestRetryStartsAFreshSession(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas%d", replicas), func(t *testing.T) { retryStartsAFreshSession(t, replicas) })
	}
}

func retryStartsAFreshSession(t *testing.T, replicas int) {
	type attempt struct {
		draws []uint64
		subs  int // subscribers of the topic after this attempt subscribed
	}
	var (
		attempts     []attempt
		firstQ       *inferlet.Queue
		firstAlloc   *inferlet.Alloc
		firstSub     inferlet.Subscription
		staleSync    error
		staleGrant   error
		staleSub     error
		staleHas     bool
		staleRelease error
		kept         bool
		own          string
	)
	prog := inferlet.Program{Name: "fresh", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		n := len(attempts) + 1
		s.Print(fmt.Sprintf("attempt %d", n))
		a := attempt{draws: []uint64{s.Random(), s.Random(), s.Random()}}
		sub := s.Subscribe("news")
		a.subs = len(s.(*session).ilm.topics["news"])
		attempts = append(attempts, a)
		q, err := s.Open("llama-1b")
		if err != nil {
			return err
		}
		alloc, err := q.Alloc()
		if err != nil {
			return err
		}
		if n == 1 {
			firstQ, firstAlloc, firstSub = q, alloc, sub
			_, err := s.Receive().Get() // until the replica dies
			return err
		}
		pages, err := alloc.Pages(1)
		if err != nil {
			return err
		}
		if err := alloc.Export("kept", pages); err != nil {
			return err
		}
		staleSync = firstQ.Sync()
		_, staleGrant = s.(*session).AppendKvPages(firstQ, nil, 1) // a context's page grant
		staleHas = firstAlloc.HasExport("kept")
		staleRelease = firstAlloc.ReleaseExport("kept")
		kept = alloc.HasExport("kept")
		if err := alloc.ReleaseExport("kept"); err != nil {
			return err
		}
		s.Broadcast("news", "second")
		_, staleSub = firstSub.Recv().Get()
		own, err = sub.Recv().Get()
		if err != nil {
			return err
		}
		return q.Close()
	}}
	h := retryOnce(t, replicas, prog, nil, func() {})

	fresh := sim.MakeRNG(0x5EED ^ h.ID)
	want := []uint64{fresh.Uint64(), fresh.Uint64(), fresh.Uint64()}
	for i, a := range attempts {
		if !slices.Equal(a.draws, want) {
			t.Errorf("attempt %d drew %v from Random, want a fresh launch's %v", i+1, a.draws, want)
		}
		if a.subs != 1 {
			t.Errorf("attempt %d found %d subscribers to its topic, want itself alone", i+1, a.subs)
		}
	}
	if !errors.Is(staleSub, sim.ErrMailboxClosed) || own != "second" {
		t.Errorf("the earlier attempt's subscription received (%v), the retried one %q; want it closed and %q", staleSub, own, "second")
	}
	if !errors.Is(staleSync, api.ErrQueueClosed) || !errors.Is(staleGrant, api.ErrQueueClosed) {
		t.Errorf("Sync and a page grant on the earlier attempt's queue = %v and %v, want ErrQueueClosed", staleSync, staleGrant)
	}
	if staleHas || !errors.Is(staleRelease, api.ErrQueueClosed) || !kept {
		t.Errorf("through the earlier attempt's queue HasExport = %v and ReleaseExport = %v, and the retry's export kept = %v; want false, ErrQueueClosed, true",
			staleHas, staleRelease, kept)
	}
	if logs := h.Logs(); !slices.Equal(logs, []string{"attempt 1", "attempt 2"}) {
		t.Errorf("logs %q, want both attempts'", logs)
	}
}
