package core

import (
	"fmt"
	"slices"
	"testing"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/model"
	"pie/internal/sim"
)

// forwardLoad is a forward-only workload for the batch former: decoders
// queues that each issue one-token forwards back to back, and one queue per
// fills entry holding forwards of those token counts from the start.
type forwardLoad struct {
	decoders int
	fills    [][]int
}

// formedForward is one forward batch as it completed.
type formedForward struct {
	decodes int      // forwards of one or two tokens
	fills   int      // the larger ones
	prefill int      // and their tokens
	seqs    []uint64 // every call's Seq, in batch order
}

// embedSession is a queue on llama-1b whose embeddings are all valid, so
// any prefix of them is a forward's input.
type embedSession struct {
	inst *Instance
	q    api.Queue
	embs []api.Embed
}

// openEmbedSession registers name with n embeddings and embeds them.
func openEmbedSession(t testing.TB, ctl *Controller, name string, n int) embedSession {
	t.Helper()
	inst := ctl.RegisterInstance(name, nil, nil)
	q := mustQueue(t, ctl, inst, "llama-1b")
	embs, err := ctl.AllocEmbeds(inst, q, n)
	if err != nil {
		t.Fatal(err)
	}
	toks, pos := make([]int, n), make([]int, n)
	for i := range toks {
		toks[i], pos[i] = 7, i
	}
	done, err := ctl.EmbedText(inst, q, toks, pos, embs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Await(done); err != nil {
		t.Fatal(err)
	}
	return embedSession{inst, q, embs}
}

// forward enqueues an n-token forward that writes no KV and no output.
func (s embedSession) forward(t testing.TB, ctl *Controller, n int) *sim.Signal {
	t.Helper()
	done, err := ctl.Forward(s.inst, s.q, api.ForwardArgs{InputEmb: s.embs[:n]})
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// runForwards serves load under policy on one llama-1b replica. The fill
// queues, opened first, enqueue all their forwards and the decoders their
// first step at one instant; each decoder issues its next step when the
// last completes, for as long as a fill is outstanding. It returns the
// forward batches in completion order and the Seqs of each fill queue's
// calls in enqueue order.
func runForwards(t *testing.T, policy SchedPolicy, load forwardLoad) ([]formedForward, [][]uint64) {
	t.Helper()
	clock := sim.NewClock()
	backend := infer.NewBackend(clock, "gpu0")
	rt := infer.NewModelRuntime(model.StandardCatalog(42).Models["llama-1b"], infer.ExecTiming)
	cfg := DefaultSchedConfig()
	cfg.Policy = policy
	ctl := NewController(clock, backend, []*infer.ModelRuntime{rt}, cfg, OffloadConfig{}, ArtifactConfig{})
	var batches []formedForward
	backend.SetCompleteFunc(func(b *infer.Batch) {
		if b.Op == infer.OpForward {
			var f formedForward
			for _, c := range b.Calls {
				if n := c.PrefillTokens(); n > 0 {
					f.fills++
					f.prefill += n
				} else {
					f.decodes++
				}
				f.seqs = append(f.seqs, c.Seq)
			}
			batches = append(batches, f)
		}
		ctl.onBatchComplete(b)
	})
	fillSeqs := make([][]uint64, len(load.fills))
	clock.Go("test", func() {
		fillers := make([]embedSession, len(load.fills))
		for i, sizes := range load.fills {
			fillers[i] = openEmbedSession(t, ctl, fmt.Sprintf("fill%d", i), slices.Max(sizes))
		}
		decoders := make([]embedSession, load.decoders)
		for i := range decoders {
			decoders[i] = openEmbedSession(t, ctl, fmt.Sprintf("decode%d", i), 1)
		}

		var fills []*sim.Signal
		for i, sizes := range load.fills {
			for _, n := range sizes {
				fills = append(fills, fillers[i].forward(t, ctl, n))
				fillSeqs[i] = append(fillSeqs[i], ctl.callSeq)
			}
		}
		outstanding := func() bool {
			return slices.ContainsFunc(fills, func(s *sim.Signal) bool { return !s.Done() })
		}
		steps := make([]*sim.Signal, len(decoders))
		for len(decoders) > 0 {
			for i, d := range decoders {
				steps[i] = d.forward(t, ctl, 1)
			}
			for _, s := range steps {
				if err := sim.Await(s); err != nil {
					t.Fatal(err)
				}
			}
			if !outstanding() {
				break
			}
		}
		for _, s := range fills {
			if err := sim.Await(s); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	return batches, fillSeqs
}

// threeFills is eight decoding sessions beside three 256-token fills: the
// agentic mix of chat decode steps and tool-spec prefills.
var threeFills = forwardLoad{decoders: 8, fills: [][]int{{256}, {256}, {256}}}

// TestPrefillBudgetSpreadsFillsOverDecodeBatches: with decode steps queued,
// a forward takes at most 500 prefill tokens on llama-1b, so the three
// fills ride one per forward, each with every ready decode step. Without
// the budget the first forward carried all 768 tokens.
func TestPrefillBudgetSpreadsFillsOverDecodeBatches(t *testing.T) {
	batches, fills := runForwards(t, PolicyAdaptive, threeFills)
	if len(batches) != 3 {
		t.Fatalf("%d forward batches, want 3: %+v", len(batches), batches)
	}
	for i, b := range batches {
		if b.decodes != 8 || b.prefill != 256 || !slices.Contains(b.seqs, fills[i][0]) {
			t.Errorf("batch %d: %d decodes, %d prefill tokens, calls %v; want the 8 decodes and fill %d (call %d)",
				i, b.decodes, b.prefill, b.seqs, i, fills[i][0])
		}
	}
}

// TestPrefillOnlyForwardIsUnbounded: with no decode step among the heads
// (a prefill replica, an idle engine's first fills) the budget does not
// apply, and the three fills form one 768-token forward.
func TestPrefillOnlyForwardIsUnbounded(t *testing.T) {
	batches, _ := runForwards(t, PolicyAdaptive, forwardLoad{fills: threeFills.fills})
	if len(batches) != 1 || batches[0].decodes != 0 || batches[0].prefill != 768 {
		t.Fatalf("forward batches %+v, want one of 768 prefill tokens", batches)
	}
}

// TestPrefillBudgetIsAdaptiveOnly: the K-only and T-only baselines (Table
// 5) form their batches as they always did: the one forward carries every
// decode step and all three fills.
func TestPrefillBudgetIsAdaptiveOnly(t *testing.T) {
	for _, policy := range []SchedPolicy{PolicyKOnly, PolicyTOnly} {
		batches, _ := runForwards(t, policy, threeFills)
		if len(batches) != 1 || batches[0].decodes != 8 || batches[0].prefill != 768 {
			t.Errorf("%v: forward batches %+v, want one with 8 decodes and 768 prefill tokens", policy, batches)
		}
	}
}

// TestPrefillBudgetCutsRunsInOrder: a fill that does not fit ends its
// queue's head run for that forward; the queue keeps its order and the call
// leads the run in the next one, while later queues' decodes and smaller
// fills still join. Here (budget 500, queues in this order):
//
//	forward 0: 256 | 2 200 1 | 40           (+ 4 decodes)   496 tokens
//	forward 1: 256 | 100 | 40                               396
//	forward 2: 300                                          300
//	forward 3: 1200, larger than the budget, alone          1200
func TestPrefillBudgetCutsRunsInOrder(t *testing.T) {
	load := forwardLoad{decoders: 4, fills: [][]int{{256, 256}, {300}, {2, 200, 1}, {100}, {1200}, {40, 40}}}
	want := [][]int{{0, 1}, {2}, {0, 0, 0}, {1}, {3}, {0, 1}} // the forward each call rides in
	const budget = 500
	batches, fills := runForwards(t, PolicyAdaptive, load)
	if len(batches) != 4 {
		t.Fatalf("%d forward batches, want 4: %+v", len(batches), batches)
	}
	at := map[uint64][2]int{} // call -> (forward, position in it)
	for i, b := range batches {
		if b.decodes < load.decoders {
			t.Errorf("forward %d carried %d decode steps, want every decoder's (%d)", i, b.decodes, load.decoders)
		}
		for j, seq := range b.seqs {
			at[seq] = [2]int{i, j}
		}
		if b.prefill > budget && b.fills != 1 {
			t.Errorf("forward %d carried %d prefill tokens in %d calls, past the budget", i, b.prefill, b.fills)
		}
	}
	aheadTok, aheadCalls := 0, 0 // prefill queued ahead, in priority/queue order
	for q, sizes := range load.fills {
		for k, n := range sizes {
			got := at[fills[q][k]]
			if got[0] != want[q][k] {
				t.Errorf("queue %d call %d (%d tokens) rode forward %d, want %d", q, k, n, got[0], want[q][k])
			}
			if k > 0 {
				if prev := at[fills[q][k-1]]; prev[0] > got[0] || prev[0] == got[0] && prev[1] > got[1] {
					t.Errorf("queue %d call %d ran before the call ahead of it in its queue", q, k)
				}
			}
			if n > 2 {
				// Each forward that defers a call takes at least one prefill
				// call queued ahead of it (the first always rides). The
				// token bound holds on this load; whole calls can leave
				// budget unused in general (four 256-token fills defer the
				// last three times, with 768 tokens ahead of it).
				if d := got[0]; d > aheadCalls || d > (aheadTok+budget-1)/budget {
					t.Errorf("queue %d call %d was deferred %d times with %d calls (%d tokens) of prefill ahead",
						q, k, d, aheadCalls, aheadTok)
				}
				aheadTok += n
				aheadCalls++
			}
		}
	}
}
