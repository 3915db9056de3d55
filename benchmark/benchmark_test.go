package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	s := sample{5, 1, 4, 2, 3}.sorted()
	for _, c := range []struct{ p, want float64 }{{50, 3}, {20, 1}, {21, 2}, {99, 5}, {100, 5}, {0.1, 1}} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("nearestRank(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	mk := func(n int) sample {
		s := make(sample, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	// p99 of 1000: rank 990, ten beyond. Of 999: rank 990, nine beyond.
	if v, err := tail(mk(1000), 99, "x"); err != nil || v != 990 {
		t.Errorf("p99 of 1000 = %v, %v", v, err)
	}
	if _, err := tail(mk(999), 99, "x"); err == nil {
		t.Error("p99 of 999 samples was accepted with 9 beyond it")
	}
	if b := beyond(100, 90); b != 10 {
		t.Errorf("beyond(100, p90) = %d", b)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(newRNG(7, 1), 5000, 50)
	b := poissonSchedule(newRNG(7, 1), 5000, 50)
	c := poissonSchedule(newRNG(8, 1), 5000, 50)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("another seed gave the same schedule")
	}
	// 5000 arrivals at 50/s take about 100 s.
	if got := a[len(a)-1].Seconds(); math.Abs(got-100) > 5 {
		t.Errorf("5000 arrivals at 50/s ended at %.1fs", got)
	}
	if prose(newRNG(7, 2), 30) != prose(newRNG(7, 2), 30) {
		t.Error("prose is not a function of the seed")
	}
}

func TestSelfTimesAndResidual(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := newTracer()
	root := tr.add("session", 0, 1, 0, msd(100))
	tr.add("ilm.launch", root, 1, 0, msd(10))
	run := tr.add("prog.run", root, 1, msd(10), msd(90))
	tr.add("prog.fill", run, 1, msd(10), msd(30))
	tr.add("prog.step", run, 1, msd(30), msd(60))
	tr.add("prog.step", run, 1, msd(50), msd(80))  // overlaps its sibling by 10 ms
	tr.add("client.wait", 0, 1, msd(80), msd(100)) // beside the tree
	self := selfTimes(tr.spans)
	want := []time.Duration{msd(10), msd(10), msd(10), msd(20), msd(30), msd(30), msd(20)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, tr.spans[i].Name, self[i], want[i])
		}
	}
	l := buildLedger(tr.spans)
	// Overlapping siblings count their overlap twice: 10 ms of residual.
	if l.Sessions != 1 || l.ResidualMax != msd(10) {
		t.Errorf("ledger: %d sessions, residual %v", l.Sessions, l.ResidualMax)
	}
	if l.SelfByName["prog.step"] != msd(60) || l.SelfByName["client.wait"] != 0 {
		t.Errorf("ledger self times: %v", l.SelfByName)
	}

	// A proper tree has no residual, and a child reaching outside its
	// parent is clipped to it.
	tr = newTracer()
	root = tr.add("session", 0, 2, 0, msd(50))
	tr.add("ilm.launch", root, 2, 0, msd(5))
	tr.add("prog.run", root, 2, msd(5), msd(45))
	if l := buildLedger(tr.spans); l.ResidualMax != 0 {
		t.Errorf("proper tree residual %v", l.ResidualMax)
	}
	tr.add("late", root, 2, msd(45), msd(70))
	if self := selfTimes(tr.spans); self[0] != 0 {
		t.Errorf("root self with clipped child = %v, want 0", self[0])
	}
}

func TestKnee(t *testing.T) {
	step := func(rate, attain, firstQ, lastQ float64) ladderStep {
		s := ladderStep{Rate: rate, Sent: 1000, InSLO: int(attain * 1000), FirstQTTFT: firstQ, LastQTTFT: lastQ}
		s.finish()
		return s
	}
	steps := []ladderStep{step(30, 1, 20, 21), step(36, 0.97, 22, 25), step(42, 0.951, 25, 30), step(48, 0.94, 30, 40), step(54, 0.99, 30, 31)}
	if got := knee(steps); got != 42 {
		t.Errorf("knee = %v, want 42 (48 misses the share; 54 passing above a failed step does not count)", got)
	}
	// Meeting the share with a growing backlog is not holding the rate.
	steps = []ladderStep{step(30, 1, 20, 21), step(36, 0.99, 20, 31)}
	if got := knee(steps); got != 30 {
		t.Errorf("knee with backlog = %v, want 30", got)
	}
	if got := knee([]ladderStep{step(30, 0.5, 20, 21)}); got != 0 {
		t.Errorf("knee when the lowest rate fails = %v, want 0", got)
	}
}

// TestRegistryMatchesBenchmarkJSON keeps ../BENCHMARK.json and the metric
// and workload tables in this package saying the same thing.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	better := func(lower bool) string {
		if lower {
			return "lower"
		}
		return "higher"
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the package %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != better(d.Lower) {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, the package %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != better(d.Lower) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, the package %+v", i, got, d)
		}
	}
}

// TestSmoke runs all five workloads end to end at smoke scale, traced pass
// and a real pie-server child included, and holds them to the same
// correctness checks as a full run.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		rep, err := w.run(runConfig{Seed: 42, Seconds: 1, Layers: true, Smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rep.validate(true, true)
		for _, c := range rep.Checks {
			t.Errorf("%s: check failed: %s", w.name, c)
		}
		if rep.Attempted == 0 || rep.Failed != 0 {
			t.Errorf("%s: attempted %d failed %d", w.name, rep.Attempted, rep.Failed)
		}
	}
}
