package core

import (
	"strings"
	"testing"

	"pie/api"
	"pie/internal/infer"
	"pie/internal/sim"
)

// BenchmarkSchedulerDispatch is the control layer's cost of one scheduling
// round over 64 command queues: every queue gets one call (embed_txt on
// half, detokenize on the other half, so two ready buckets compete), the
// adaptive scheduler forms the two 32-wide batches, and the completions
// release the queues. One op is one such round, sim events included, and
// the signal the round waits on. The detokenizes' results are never read,
// so their records go to the GC and each round makes 32 fresh ones, whose
// lists grow again: the row prices dropped results, which no workload's
// hot path has.
func BenchmarkSchedulerDispatch(b *testing.B) {
	runCtl(b, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		const queues = 64
		insts := make([]*Instance, queues)
		qids := make([]api.Queue, queues)
		embs := make([][]api.Embed, queues)
		for i := range insts {
			insts[i] = ctl.RegisterInstance("bench", nil, nil)
			qids[i] = mustQueue(b, ctl, insts[i], "llama-1b")
			var err error
			if embs[i], err = ctl.AllocEmbeds(insts[i], qids[i], nil, 1); err != nil {
				b.Fatal(err)
			}
		}
		tok, pos := []int{7}, []int{0}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for i := range insts {
				if i%2 == 0 {
					if err := ctl.EmbedText(insts[i], qids[i], tok, pos, embs[i]); err != nil {
						b.Fatal(err)
					}
				} else if _, err := ctl.Detokenize(insts[i], qids[i], nil); err != nil {
					b.Fatal(err)
				}
			}
			if err := sim.Await(drained(ctl)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for _, inst := range insts {
			ctl.ReleaseInstance(inst)
		}
	})
}

// BenchmarkSchedulerMixedForward is the control layer's cost of one round
// of forwards on llama-1b: three queues each enqueue a 256-token fill and 48
// a decode step, so the adaptive former scans the forward against its
// prefill budget (every decode step and one fill, then the other two fills
// together). One op is one such round, sim events included; the one
// allocation is the signal the round waits on.
func BenchmarkSchedulerMixedForward(b *testing.B) {
	runCtl(b, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		const fills, decoders = 3, 48
		sessions := make([]embedSession, fills+decoders)
		for i := range sessions {
			n := 1
			if i < fills {
				n = 256
			}
			sessions[i] = openEmbedSession(b, ctl, "bench", n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for _, s := range sessions {
				if err := ctl.Forward(s.inst, s.q, api.ForwardArgs{InputEmb: s.embs}); err != nil {
					b.Fatal(err)
				}
			}
			if err := sim.Await(drained(ctl)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for _, s := range sessions {
			ctl.ReleaseInstance(s.inst)
		}
	})
}

// BenchmarkBatchRoundTrip is the host cost of the batch path alone: one
// embed_txt call from enqueue to completion with nothing else in the system,
// so every op is one single-call batch. events/op counts the batch's own
// events — kick, deserialised, kernel done, response — and leaves out the
// caller's wake. The call allocates nothing: embed_txt returns no future,
// and the benchmark waits on one signal it resets each round.
func BenchmarkBatchRoundTrip(b *testing.B) {
	runCtl(b, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		inst := ctl.RegisterInstance("bench", nil, nil)
		q := mustQueue(b, ctl, inst, "llama-1b")
		embs, err := ctl.AllocEmbeds(inst, q, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		tok, pos := []int{7}, []int{0}
		w, done, blank := watch(ctl), sim.NewSignal(clock), *sim.NewSignal(clock)
		step := func() {
			if err := ctl.EmbedText(inst, q, tok, pos, embs); err != nil {
				b.Fatal(err)
			}
			*done = blank // unresolved again
			w.waits[ctl.callSeq] = done
			if err := sim.Await(done); err != nil {
				b.Fatal(err)
			}
		}
		step() // the first batch makes the records the rest recycle
		b.ReportAllocs()
		b.ResetTimer()
		events, batches := clock.Events(), ctl.sched.Batches
		for n := 0; n < b.N; n++ {
			step()
		}
		b.StopTimer()
		if got := ctl.sched.Batches - batches; got != b.N {
			b.Fatalf("%d batches for %d calls", got, b.N)
		}
		b.ReportMetric(float64(clock.Events()-events)/float64(b.N)-1, "events/op")
		ctl.ReleaseInstance(inst)
	})
}

// BenchmarkTokenize is one tokenize of a ~2 KB prompt from call to result,
// with nothing else in the system.
func BenchmarkTokenize(b *testing.B) {
	runCtl(b, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		inst := ctl.RegisterInstance("bench", nil, nil)
		q := mustQueue(b, ctl, inst, "llama-1b")
		prompt := strings.Repeat("You are a careful assistant; answer the user's question in full. ", 32)
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			f, err := ctl.Tokenize(inst, q, prompt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.Get(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		ctl.ReleaseInstance(inst)
	})
}

// BenchmarkTieredPoolAllocEvict is one allocation under memory pressure: the
// device tier is full, so allocating 4 pages picks and offloads the 4
// least-recently-used device pages (the victim scan walks every
// materialized id), and the 4 oldest pages are then released to keep the
// pool in steady state.
func BenchmarkTieredPoolAllocEvict(b *testing.B) {
	const dev, host, step = 256, 256, 4
	p := newTieredPool(dev, host, lruEvictor{})
	var fifo, ids []int32
	ok := true
	for len(fifo) < dev+host/2 && ok { // device full, host half full
		fifo, _, ok = p.alloc(fifo, step, 0)
	}
	if !ok {
		b.Fatal("setup alloc failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var swapped int
		ids, swapped, ok = p.alloc(ids[:0], step, 0)
		if !ok || swapped != step {
			b.Fatalf("alloc: ok=%v swapped=%d", ok, swapped)
		}
		for _, id := range fifo[:step] {
			p.release(id)
		}
		fifo = append(fifo[step:], ids...)
	}
}

// BenchmarkHandoff is one session handoff between two replicas: 16 pages of
// one model (four of them also imported, so shared), two embeds of another,
// each copied to the other replica and released here. The session moves
// back and forth, so each op starts where the last one left it.
func BenchmarkHandoff(b *testing.B) {
	runCtl(b, infer.ExecTiming, 0, OffloadConfig{}, func(clock *sim.Clock, ctl *Controller) {
		dst := checkedAtEnd(b, newTestController(clock, "gpu1", infer.ExecTiming, 0, OffloadConfig{}))
		inst := handoffSession(b, ctl)
		at, other := ctl, dst
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if _, _, err := at.HandoffSession(inst, other); err != nil {
				b.Fatal(err)
			}
			at, other = other, at
		}
		b.StopTimer()
		at.ReleaseInstance(inst)
	})
}
