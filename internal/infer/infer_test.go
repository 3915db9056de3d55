package infer

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"pie/internal/model"
	"pie/internal/sim"
)

func testRuntime(mode ExecMode) *ModelRuntime {
	cat := model.StandardCatalog(42)
	return NewModelRuntime(cat.Models["llama-1b"], mode)
}

func TestBatchCostSharesWeightStream(t *testing.T) {
	rt := testRuntime(ExecTiming)
	mkFwd := func() *Call {
		in := rt.Embed(0)
		in.Valid = true
		return &Call{Op: OpForward, Model: rt, Inputs: []*model.EmbedSlot{in}}
	}
	one := (&Batch{Op: OpForward, Model: rt, Calls: []*Call{mkFwd()}}).Cost()
	var calls []*Call
	for i := 0; i < 16; i++ {
		calls = append(calls, mkFwd())
	}
	sixteen := (&Batch{Op: OpForward, Model: rt, Calls: calls}).Cost()
	if sixteen >= 16*one/4 {
		t.Fatalf("no batching economics: 16 calls cost %v vs %v for one", sixteen, one)
	}
	if sixteen <= one {
		t.Fatal("marginal per-call cost missing")
	}
}

func TestBatchCostPrefillVsDecode(t *testing.T) {
	rt := testRuntime(ExecTiming)
	mk := func(n int) *Call {
		var ins []*model.EmbedSlot
		for i := 0; i < n; i++ {
			s := rt.Embed(int32(100 + i))
			s.Valid = true
			ins = append(ins, s)
		}
		return &Call{Op: OpForward, Model: rt, Inputs: ins}
	}
	decode64 := time.Duration(0)
	for i := 0; i < 64; i++ {
		decode64 += (&Batch{Op: OpForward, Model: rt, Calls: []*Call{mk(1)}}).Cost()
	}
	prefill64 := (&Batch{Op: OpForward, Model: rt, Calls: []*Call{mk(64)}}).Cost()
	if prefill64 >= decode64/4 {
		t.Fatalf("bulk prefill (%v) should be far cheaper than 64 decode kernels (%v)", prefill64, decode64)
	}
}

func TestBatchExtraAddsToCost(t *testing.T) {
	rt := testRuntime(ExecTiming)
	in := rt.Embed(0)
	in.Valid = true
	b := &Batch{Op: OpForward, Model: rt, Calls: []*Call{{Op: OpForward, Model: rt, Inputs: []*model.EmbedSlot{in}}}}
	base := b.Cost()
	b.Extra = time.Millisecond
	if b.Cost() != base+time.Millisecond {
		t.Fatalf("Extra not added: %v vs %v", b.Cost(), base)
	}
}

func TestTimingForwardBookkeeping(t *testing.T) {
	rt := testRuntime(ExecTiming)
	page := rt.Page(0)
	var ins []*model.EmbedSlot
	for i := 0; i < 5; i++ {
		s := rt.Embed(int32(i))
		s.Valid = true
		s.Pos = 10 + i
		ins = append(ins, s)
	}
	out := rt.Embed(99)
	c := &Call{Op: OpForward, Model: rt, Inputs: ins,
		OutPages: []*model.KvPage{page}, Outputs: []*model.EmbedSlot{out}}
	if err := rt.executeCall(c); err != nil {
		t.Fatal(err)
	}
	if page.NumUsed() != 5 {
		t.Fatalf("page has %d used slots, want 5", page.NumUsed())
	}
	if page.Pos[0] != 10 || page.Pos[4] != 14 {
		t.Fatalf("positions not recorded: %v", page.Pos[:5])
	}
	if !out.Valid || out.Pos != 14 {
		t.Fatalf("output slot not updated: valid=%v pos=%d", out.Valid, out.Pos)
	}
	// CtxTokens must count unmasked used slots.
	probe := &Call{Op: OpForward, Model: rt, CtxPages: []*model.KvPage{page}}
	if probe.CtxTokens() != 5 {
		t.Fatalf("CtxTokens = %d, want 5", probe.CtxTokens())
	}
	page.SetSlot(1, true, true)
	if probe.CtxTokens() != 4 {
		t.Fatalf("CtxTokens after mask = %d, want 4", probe.CtxTokens())
	}
}

func TestTimingForwardRejectsOverfullPages(t *testing.T) {
	rt := testRuntime(ExecTiming)
	page := rt.Page(1)
	var ins []*model.EmbedSlot
	for i := 0; i < rt.Model.Config().PageSize+1; i++ {
		s := rt.Embed(int32(200 + i))
		s.Valid = true
		ins = append(ins, s)
	}
	c := &Call{Op: OpForward, Model: rt, Inputs: ins, OutPages: []*model.KvPage{page}}
	if err := rt.executeCall(c); err == nil {
		t.Fatal("overfull output page accepted")
	}
}

func TestTimingDistDeterministicAndWellFormed(t *testing.T) {
	rt := testRuntime(ExecTiming)
	slot := rt.Embed(7)
	slot.Valid = true
	clock := sim.NewClock()
	get := func() DistResult {
		c := &Call{Op: OpNextDist, Model: rt, Inst: 3, Seq: 9, DistOf: slot,
			DistFut: sim.NewFuture[DistResult](clock)}
		if err := rt.executeCall(c); err != nil {
			t.Fatal(err)
		}
		r, _ := c.DistFut.Get()
		return r
	}
	var a, b DistResult
	clock.Go("p", func() { a = get(); b = get() })
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(a.Tokens) != rt.Model.Config().TopK {
		t.Fatalf("dist size %d", len(a.Tokens))
	}
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] {
			t.Fatal("timing-mode dist not deterministic")
		}
		if a.Tokens[i] < 4 || a.Tokens[i] >= rt.Model.VocabSize() {
			t.Fatalf("token %d out of range", a.Tokens[i])
		}
	}
}

// TestBatchTokensShareOneSlab: the token lists a timing-mode batch hands out
// are cut from one allocation, each clipped to its own length, and hold what
// the same calls get when executed one at a time; a call that fails leaves
// the others' lists whole.
func TestBatchTokensShareOneSlab(t *testing.T) {
	rt := testRuntime(ExecTiming)
	clock := sim.NewClock()
	topK := rt.Model.Config().TopK
	valid, invalid := rt.Embed(7), rt.Embed(8)
	valid.Valid = true
	dist := func(seq uint64, of *model.EmbedSlot) *Call {
		return &Call{Op: OpNextDist, Model: rt, Inst: 3, Seq: seq, DistOf: of, DistFut: sim.NewFuture[DistResult](clock)}
	}
	fused := func(seq uint64, outs int) *Call {
		c := &Call{Op: OpForward, Model: rt, Inst: 5, Seq: seq, Sample: &SampleSpec{}, FusedTok: sim.NewFuture[[]int](clock),
			FusedEmb: make([]int, outs), FusedPos: make([]int, outs)}
		for i := 0; i < outs; i++ {
			c.Outputs = append(c.Outputs, rt.Embed(int32(20+i)))
		}
		return c
	}
	clock.Go("p", func() {
		dists := &Batch{Op: OpNextDist, Model: rt, Calls: []*Call{dist(1, valid), dist(2, invalid), dist(3, valid)}}
		rt.execute(dists)
		if dists.Calls[1].Err == nil {
			t.Error("get_next_dist on an unwritten embed succeeded")
		}
		a, _ := dists.Calls[0].DistFut.Get()
		b, _ := dists.Calls[2].DistFut.Get()
		if len(a.Tokens) != topK || cap(a.Tokens) != topK || len(b.Tokens) != topK {
			t.Fatalf("token lists of %d (cap %d) and %d, want %d clipped", len(a.Tokens), cap(a.Tokens), len(b.Tokens), topK)
		}
		if !adjacent(a.Tokens, b.Tokens) {
			t.Error("two calls of one batch got token lists from different allocations")
		}
		for i, c := range []*Call{dists.Calls[0], dists.Calls[2]} {
			alone := dist(c.Seq, valid)
			if err := rt.executeCall(alone); err != nil {
				t.Fatal(err)
			}
			want, _ := alone.DistFut.Get()
			got, _ := c.DistFut.Get()
			if !slices.Equal(got.Tokens, want.Tokens) {
				t.Errorf("call %d: batched tokens differ from the call executed alone", i)
			}
		}

		fwd := &Batch{Op: OpForward, Model: rt, Calls: []*Call{fused(4, 2), fused(5, 3)}}
		rt.execute(fwd)
		x, _ := fwd.Calls[0].FusedTok.Get()
		y, _ := fwd.Calls[1].FusedTok.Get()
		if len(x) != 2 || cap(x) != 2 || len(y) != 3 || !adjacent(x, y) {
			t.Errorf("fused sampling handed out %d (cap %d) and %d tokens, want 2 and 3 from one slab", len(x), cap(x), len(y))
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

// adjacent reports whether b starts where a ends.
func adjacent(a, b []int) bool {
	return unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), len(a)*int(unsafe.Sizeof(a[0]))) == unsafe.Pointer(unsafe.SliceData(b))
}

func TestBackendExecutesBatchInOrder(t *testing.T) {
	// Two chained forwards in one batch: the second reads the first's
	// output page (vertical batching of the paper's split-prefill).
	rt := testRuntime(ExecTiming)
	clock := sim.NewClock()
	be := NewBackend(clock, "t")
	page := rt.Page(3)
	mk := func(pos int, ctx []*model.KvPage) *Call {
		in := rt.Embed(int32(300 + pos))
		in.Valid = true
		in.Pos = pos
		return &Call{Op: OpForward, Model: rt, Inputs: []*model.EmbedSlot{in},
			CtxPages: ctx, OutPages: []*model.KvPage{page},
			Done: sim.NewSignal(clock)}
	}
	c1 := mk(0, nil)
	c2 := mk(1, []*model.KvPage{page})
	clock.Go("driver", func() {
		be.Submit(&Batch{Op: OpForward, Model: rt, Calls: []*Call{c1, c2}})
		_ = sim.Await(c2.Done)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if c1.Err != nil || c2.Err != nil {
		t.Fatalf("errors: %v / %v", c1.Err, c2.Err)
	}
	if page.NumUsed() != 2 {
		t.Fatalf("page used %d, want 2 (chained writes)", page.NumUsed())
	}
	if be.BatchesRun != 1 || be.CallsRun != 2 {
		t.Fatalf("backend stats: %d batches, %d calls", be.BatchesRun, be.CallsRun)
	}
}

func TestOpControlSide(t *testing.T) {
	if OpForward.ControlSide() || OpNextDist.ControlSide() {
		t.Fatal("GPU ops marked control-side")
	}
	if !OpDealloc.ControlSide() || !OpSync.ControlSide() {
		t.Fatal("control ops not marked")
	}
	if OpForward.String() != "forward" || OpNextDist.String() != "get_next_dist" {
		t.Fatal("op names wrong")
	}
}
