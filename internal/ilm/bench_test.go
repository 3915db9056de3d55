package ilm

import (
	"testing"

	"pie/inferlet"
	"pie/internal/sim"
)

// BenchmarkLaunch is one warm launch of a program that returns at once,
// from Launch through Wait, on one replica with nothing else running.
func BenchmarkLaunch(b *testing.B) {
	clock := sim.NewClock()
	m := oneReplicaILM(clock)
	if err := m.Register(prog("noop", "", inferlet.Manifest{})); err != nil {
		b.Fatal(err)
	}
	launch := func() {
		h := new(Handle)
		if err := m.Launch(h, LaunchSpec{Program: "noop"}); err != nil {
			b.Fatal(err)
		}
		if err := h.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	clock.Go("client", func() {
		launch() // cold: the rest find the artifact cached
		b.ReportAllocs()
		b.ResetTimer()
		events := clock.Events()
		for n := 0; n < b.N; n++ {
			launch()
		}
		b.StopTimer()
		b.ReportMetric(float64(clock.Events()-events)/float64(b.N), "events/op")
	})
	if err := clock.Run(); err != nil {
		b.Fatal(err)
	}
}
