package cluster_test

import (
	"testing"
	"time"

	"pie"
	"pie/internal/infer"
	"pie/internal/trace"
)

// TestSpanStreamFoldsMatchTheCluster is the span stream's free oracle: on a
// classed prefill/decode pair, folds of the stream taken outside the cluster
// agree with what the cluster folds inside. TTFT and ITL spans folded per
// class give ClassStats' sample counts and attainments exactly; the
// Prefilled points, one per session on the prefill replica, give the
// handoff records; and each replica's Overhead spans, folded per call, give
// its backend's call and batch counts and the overhead its single parser
// makes, replayed call by call from the spans' submission times.
func TestSpanStreamFoldsMatchTheCluster(t *testing.T) {
	classes := []pie.ServiceClass{
		{Name: "interactive", TTFTTarget: 30 * time.Millisecond, ITLTarget: 20 * time.Millisecond, Priority: 10},
		{Name: "batch", TTFTTarget: 200 * time.Millisecond, ITLTarget: 40 * time.Millisecond},
	}
	e := newEngine(t, pie.Config{
		Seed: 5, Replicas: 2, Classes: classes,
		Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}},
	})
	var spans []trace.Span
	e.Cluster().OnSpan = func(s trace.Span) { spans = append(spans, s) }
	if err := e.RunClient(func() {
		var hs []*pie.Handle
		for i := range 18 {
			sp := pie.Spec("text_completion", completionParams(8+4*(i%3), ""))
			sp.Class = []string{"interactive", "batch", ""}[i%3]
			h, err := e.Launch(sp)
			if err != nil {
				t.Errorf("launch %d: %v", i, err)
				return
			}
			hs = append(hs, h)
			e.Sleep(time.Duration(i%4) * time.Millisecond)
		}
		for _, h := range hs {
			if err := h.Wait(); err != nil {
				t.Error(err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	cl := e.Cluster()

	type fold struct {
		pie.ServiceClass
		ttft, ttftGood, itl, itlGood int
	}
	byClass := map[string]*fold{}
	for _, c := range classes {
		byClass[c.Name] = &fold{ServiceClass: c}
	}
	type key struct {
		replica int
		inst    uint64
	}
	prefilled := map[key]int{}
	var calls, batches [2]int
	var parsed [2]time.Duration
	var total, replayed time.Duration
	for _, s := range spans {
		switch s.Kind {
		case trace.TTFT, trace.ITL:
			f := byClass[s.Class]
			if f == nil {
				continue
			}
			if d := s.End - s.Start; s.Kind == trace.TTFT {
				f.ttft++
				f.ttftGood += btoi(d <= f.TTFTTarget)
			} else {
				f.itl++
				f.itlGood += btoi(d <= f.ITLTarget)
			}
		case trace.Prefilled:
			prefilled[key{s.Replica, s.Instance}]++
		case trace.Overhead:
			r := s.Replica
			calls[r] += s.Calls
			batches[r]++
			total += time.Duration(s.Calls) * (s.End - s.Start)
			// The parser takes batches one at a time in submission order,
			// each call for DeserPerCall; both IPC hops are pipelined.
			parsed[r] = max(parsed[r], s.Start) + time.Duration(s.Calls)*infer.DeserPerCall
			replayed += time.Duration(s.Calls) * (parsed[r] + 2*infer.IPCCrossing - s.Start)
		}
	}

	att := func(good, n int) float64 { return float64(good) / float64(n) }
	bite := false // some target misses some sample, so attainment is not vacuous
	for _, cs := range cl.ClassStats() {
		bite = bite || cs.TTFTAttainment < 1 || cs.ITLAttainment < 1
		f := byClass[cs.Class]
		if f.ttft == 0 || f.itl == 0 || cs.TTFTSamples != f.ttft || cs.ITLSamples != f.itl ||
			cs.TTFTAttainment != att(f.ttftGood, f.ttft) || cs.ITLAttainment != att(f.itlGood, f.itl) {
			t.Errorf("class %s: ClassStats %+v, span fold %d/%d TTFT and %d/%d ITL samples in target",
				cs.Class, cs, f.ttftGood, f.ttft, f.itlGood, f.itl)
		}
	}
	if !bite {
		t.Error("every sample met its target: tighten one so the attainment comparison bites")
	}

	st := e.Stats()
	for k, n := range prefilled {
		if n != 1 || k.replica != 0 {
			t.Errorf("instance %d on replica %d has %d Prefilled spans, want 1 on the prefill replica", k.inst, k.replica, n)
		}
	}
	if len(prefilled) != 18 || st.Handoffs+st.HandoffDenied != len(prefilled) {
		t.Errorf("%d sessions marked prefilled, %d handoffs and %d denials; want 18, all handed off or denied",
			len(prefilled), st.Handoffs, st.HandoffDenied)
	}

	for i, r := range cl.Replicas() {
		if calls[i] == 0 || calls[i] != r.Backend.CallsRun || batches[i] != r.Backend.BatchesRun {
			t.Errorf("replica %d: Overhead spans cover %d calls in %d batches; its backend ran %d in %d",
				i, calls[i], batches[i], r.Backend.CallsRun, r.Backend.BatchesRun)
		}
	}
	if total != replayed {
		t.Errorf("Overhead spans sum to %v per call, the replayed parser to %v", total, replayed)
	}

	// Folding allocates nothing, observed or not.
	for _, hook := range []func(trace.Span){nil, func(trace.Span) {}} {
		cl.OnSpan = hook
		if n := testing.AllocsPerRun(100, func() {
			cl.Span(trace.Span{Kind: trace.ITL, Replica: 1, Class: "interactive", End: time.Millisecond, Calls: 1})
		}); n != 0 {
			t.Errorf("Span with OnSpan %v allocated %v times, want 0", hook != nil, n)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
