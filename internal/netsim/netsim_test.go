package netsim

import (
	"testing"
	"time"

	"pie/internal/sim"
)

func TestRoundTripChargesRTT(t *testing.T) {
	clock := sim.NewClock()
	var took time.Duration
	clock.Go("client", func() {
		l := Link{Clock: clock, RTT: 20 * time.Millisecond}
		v := RoundTrip(l, func() int { return 7 })
		if v != 7 {
			t.Errorf("RoundTrip returned %d", v)
		}
		took = clock.Now()
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if took != 20*time.Millisecond {
		t.Fatalf("round trip took %v, want 20ms", took)
	}
}

// TestServiceLatencyAndHandler: a call resolves with the handler's response
// after the service's latency. The response is a timer, not a process: the
// handler runs with no process current, one event after the call.
func TestServiceLatencyAndHandler(t *testing.T) {
	clock := sim.NewClock()
	w := NewWorld(clock)
	var called, handled uint64
	w.Register(&Service{Name: "api.test", Latency: 30 * time.Millisecond,
		Handler: func(req string) string {
			if clock.Current() != nil {
				t.Errorf("the handler ran in process %q, want a timer", clock.Current().Name())
			}
			handled = clock.Events()
			return "echo:" + req
		}})
	var resp string
	var took time.Duration
	clock.Go("client", func() {
		called = clock.Events()
		resp, _ = w.Call("http://api.test/path?x=1", "hi").Get()
		took = clock.Now()
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if resp != "echo:hi" {
		t.Fatalf("resp %q", resp)
	}
	if took != 30*time.Millisecond {
		t.Fatalf("latency %v, want 30ms", took)
	}
	if w.Calls != 1 {
		t.Fatalf("calls %d", w.Calls)
	}
	if n := handled - called; n != 1 {
		t.Fatalf("%d events from call to response, want 1", n)
	}
}

func TestUnknownHostDefaultLatency(t *testing.T) {
	clock := sim.NewClock()
	w := NewWorld(clock)
	w.DefaultLatency = 15 * time.Millisecond
	var took time.Duration
	clock.Go("client", func() {
		resp, err := w.Call("https://nowhere.example/x", "").Get()
		if err != nil || resp == "" {
			t.Errorf("default handler: %q, %v", resp, err)
		}
		took = clock.Now()
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if took != 15*time.Millisecond {
		t.Fatalf("latency %v", took)
	}
}

func TestFireAndForget(t *testing.T) {
	clock := sim.NewClock()
	w := NewWorld(clock)
	w.Register(&Service{Name: "slow.api", Latency: time.Second,
		Handler: func(string) string { return "late" }})
	var took time.Duration
	clock.Go("client", func() {
		_ = w.Call("http://slow.api/", "") // dropped future
		took = clock.Now()
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if took != 0 {
		t.Fatalf("fire-and-forget blocked the caller for %v", took)
	}
}

func TestHostParsing(t *testing.T) {
	for url, want := range map[string]string{
		"http://a.b/c":    "a.b",
		"https://x.y":     "x.y",
		"plain.host/path": "plain.host",
		"bare":            "bare",
	} {
		if got := host(url); got != want {
			t.Errorf("host(%q) = %q, want %q", url, got, want)
		}
	}
}
