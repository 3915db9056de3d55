package netsim

import (
	"testing"
	"time"

	"pie/internal/sim"
)

// BenchmarkToolCall is one tool call from Call to its response, with the
// caller waiting on it and nothing else in the world.
func BenchmarkToolCall(b *testing.B) {
	clock := sim.NewClock()
	w := NewWorld(clock)
	w.Register(&Service{Name: "api.test", Latency: time.Millisecond, Handler: func(req string) string { return req }})
	clock.Go("client", func() {
		b.ReportAllocs()
		b.ResetTimer()
		events := clock.Events()
		for n := 0; n < b.N; n++ {
			if _, err := w.Call("http://api.test/q", "hi").Get(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		// Less the caller's own wake: what the call costs the clock.
		b.ReportMetric(float64(clock.Events()-events)/float64(b.N)-1, "events/op")
	})
	if err := clock.Run(); err != nil {
		b.Fatal(err)
	}
}
