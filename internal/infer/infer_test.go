package infer

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"pie/api"
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
	get := func() api.Dist {
		c := armed(&Call{Op: OpNextDist, Model: rt, Inst: 3, Seq: 9, DistOf: slot}, clock)
		if err := rt.executeCall(c); err != nil {
			t.Fatal(err)
		}
		return c.Dist
	}
	var a, b api.Dist
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

// TestTimingDistIsAView: a timing-mode distribution's Tokens is a window of
// the runtime's shared table — the same (inst, seq) gets the same window, TopK
// long and clipped there, so an append copies and the table stays whole — and
// a batch of them allocates nothing; a call that fails leaves the others'.
func TestTimingDistIsAView(t *testing.T) {
	rt := testRuntime(ExecTiming)
	clock := sim.NewClock()
	topK := rt.Model.Config().TopK
	valid, invalid := rt.Embed(7), rt.Embed(8)
	valid.Valid = true
	dist := func(inst, seq uint64, of *model.EmbedSlot) *Call {
		return armed(&Call{Op: OpNextDist, Model: rt, Inst: inst, Seq: seq, DistOf: of}, clock)
	}
	get := func(c *Call) []int {
		if !c.Res.Done() || c.Err != nil {
			t.Fatalf("get_next_dist: done %v, error %v", c.Res.Done(), c.Err)
		}
		return c.Dist.Tokens
	}
	table := pseudoTable(rt.Model.VocabSize())
	if unsafe.SliceData(table) != unsafe.SliceData(testRuntime(ExecTiming).pseudoToks) {
		t.Error("two runtimes of one vocabulary built two tables")
	}
	before := slices.Clone(table)
	clock.Go("p", func() {
		b := &Batch{Op: OpNextDist, Model: rt, Calls: []*Call{dist(3, 1, valid), dist(3, 1, valid), dist(4, 1, valid)}}
		if allocs := testing.AllocsPerRun(10, func() {
			for _, c := range b.Calls {
				c.Res.Reset()
			}
			rt.execute(b)
		}); allocs != 0 {
			t.Errorf("a batch of %d distributions allocated %v times", len(b.Calls), allocs)
		}
		x, same, other := get(b.Calls[0]), get(b.Calls[1]), get(b.Calls[2])
		b.Calls[0], b.Calls[1], b.Calls[2] = dist(3, 1, valid), dist(3, 2, invalid), dist(4, 1, valid)
		rt.execute(b)
		if b.Calls[1].Err == nil {
			t.Error("get_next_dist on an unwritten embed succeeded")
		}
		if after := get(b.Calls[2]); unsafe.SliceData(after) != unsafe.SliceData(other) {
			t.Error("a failed call in the batch moved its neighbour's window")
		}
		if len(x) != topK || cap(x) != topK {
			t.Fatalf("window of %d (cap %d), want %d clipped", len(x), cap(x), topK)
		}
		if unsafe.SliceData(x) != unsafe.SliceData(same) {
			t.Error("the same (inst, seq) got two windows")
		}
		if unsafe.SliceData(x) == unsafe.SliceData(other) {
			t.Error("another instance got the same window")
		}
		lo, hi := unsafe.Pointer(unsafe.SliceData(table)), unsafe.Pointer(&table[len(table)-topK])
		if p := unsafe.Pointer(unsafe.SliceData(x)); uintptr(p) < uintptr(lo) || uintptr(p) > uintptr(hi) {
			t.Error("window lies outside the shared table")
		}
		grown := append(x, 1)
		grown[0] = -1
		if x[0] == -1 || !slices.Equal(table, before) {
			t.Error("append on a window wrote into the shared table")
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSampledTokensShareOneSlab: the token lists a timing-mode batch of
// sampled forwards hands out are the caller's to keep, cut from one
// allocation and each clipped to its own length.
func TestSampledTokensShareOneSlab(t *testing.T) {
	rt := testRuntime(ExecTiming)
	clock := sim.NewClock()
	fused := func(seq uint64, outs int) *Call {
		c := armed(&Call{Op: OpForward, Model: rt, Inst: 5, Seq: seq, Sample: &SampleSpec{},
			FusedEmb: make([]int, outs), FusedPos: make([]int, outs)}, clock)
		for i := 0; i < outs; i++ {
			c.Outputs = append(c.Outputs, rt.Embed(int32(20+i)))
		}
		return c
	}
	clock.Go("p", func() {
		fwd := &Batch{Op: OpForward, Model: rt, Calls: []*Call{fused(4, 2), fused(5, 3)}}
		rt.execute(fwd)
		x, y := fwd.Calls[0].Sampled, fwd.Calls[1].Sampled
		if len(x) != 2 || cap(x) != 2 || len(y) != 3 || !adjacent(x, y) {
			t.Errorf("fused sampling handed out %d (cap %d) and %d tokens, want 2 and 3 from one slab", len(x), cap(x), len(y))
		}
		alone := fused(5, 3)
		if err := rt.executeCall(alone); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(y, alone.Sampled) {
			t.Error("batched tokens differ from the call executed alone")
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
			CtxPages: ctx, OutPages: []*model.KvPage{page}}
	}
	c1 := mk(0, nil)
	c2 := mk(1, []*model.KvPage{page})
	done := sim.NewSignal(clock)
	be.SetCompleteFunc(func(*Batch) { sim.Fire(done) })
	clock.Go("driver", func() {
		be.Submit(&Batch{Op: OpForward, Model: rt, Calls: []*Call{c1, c2}})
		_ = sim.Await(done)
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

// TestBackendFailsWhatExecutionRejects: a forward that writes more tokens
// than its output pages hold fails at execution. Fused, the failure reaches
// its sampled tokens instead of a token future nobody resolves; plain, it
// has no future, and the call reaches the completion callback carrying the
// error for the control layer to hold on its queue.
func TestBackendFailsWhatExecutionRejects(t *testing.T) {
	rt := testRuntime(ExecTiming)
	clock := sim.NewClock()
	be := NewBackend(clock, "t")
	var completed []*Call
	be.SetCompleteFunc(func(b *Batch) { completed = append(completed, b.Calls...) })
	ps := rt.Model.Config().PageSize
	overfull := func(fused bool) *Call {
		var ins, outs []*model.EmbedSlot
		for i := 0; i <= ps; i++ {
			s := rt.Embed(int32(400 + i))
			s.Valid, s.Pos = true, i
			ins = append(ins, s)
		}
		c := &Call{Op: OpForward, Model: rt, Inputs: ins, OutPages: []*model.KvPage{rt.Page(5)}}
		if fused {
			outs = append(outs, rt.Embed(499))
			c.Outputs, c.Sample = outs, &SampleSpec{}
			c.Res.Init(clock, nil)
		}
		return c
	}
	plain, fused := overfull(false), overfull(true)
	var tokErr error
	clock.Go("driver", func() {
		be.Submit(&Batch{Op: OpForward, Model: rt, Calls: []*Call{plain}})
		be.Submit(&Batch{Op: OpForward, Model: rt, Calls: []*Call{fused}})
		_, tokErr = sim.Hold(&fused.Res, &fused.Sampled).Get()
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if plain.HasResult() || plain.Err == nil || len(completed) != 2 || completed[0] != plain {
		t.Fatalf("the plain forward completed as %v with error %v, want first, with the execution error", completed, plain.Err)
	}
	if tokErr == nil || tokErr != fused.Err {
		t.Fatalf("fused Get = %v, want the execution error %v", tokErr, fused.Err)
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

// BenchmarkNextDistTiming is one timing-mode get_next_dist executed by the
// runtime, at three TopK: a hash and a slice of the shared table, so the cost
// does not depend on TopK and nothing is allocated.
func BenchmarkNextDistTiming(b *testing.B) {
	cat := model.StandardCatalog(42)
	for _, topK := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("topk%d", topK), func(b *testing.B) {
			cfg := cat.Models["llama-1b"].Config()
			cfg.TopK = topK
			rt := NewModelRuntime(model.New(cfg, cat.Tokenizer), ExecTiming)
			slot := rt.Embed(0)
			slot.Valid = true
			clock := sim.NewClock()
			c := armed(&Call{Op: OpNextDist, Model: rt, Inst: 3, DistOf: slot}, clock)
			var sum int
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				c.Res.Reset() // an unresolved cell again
				c.Seq = uint64(n)
				if err := rt.executeCall(c); err != nil {
					b.Fatal(err)
				}
				sum += c.Dist.Tokens[0] + len(c.Dist.Tokens)
			}
			sink = sum
		})
	}
}

var sink int

// armed returns c with its result cell on clock, as the control layer
// issues a call.
func armed(c *Call, clock *sim.Clock) *Call {
	c.Res.Init(clock, nil)
	return c
}

// TestFirstTouchAllocations pins what materializing timing-mode pages and
// embed slots costs: touching 256 fresh ids of each makes the sixteen
// chunks of each they are cut from (four allocations per page chunk, one
// per embed chunk) and grows each id table nine times: 98 allocations,
// where each page alone used to cost six. Each page still gets slot arrays
// of its own.
func TestFirstTouchAllocations(t *testing.T) {
	const n, want = 256, 16*4 + 16 + 2*9
	var rts []*ModelRuntime
	for range 4 {
		rts = append(rts, testRuntime(ExecTiming))
	}
	allocs := testing.AllocsPerRun(len(rts)-1, func() {
		rt := rts[0]
		rts = rts[1:]
		for id := range int32(n) {
			rt.Page(id)
			rt.Embed(id)
		}
	})
	if allocs != want {
		t.Errorf("first touch of %d pages and %d embed slots makes %v allocations, want %d", n, n, allocs, want)
	}
	rt := testRuntime(ExecTiming)
	ps := rt.Model.Config().PageSize
	a, b := rt.Page(0), rt.Page(1)
	a.SetSlot(ps-1, true, false)
	a.Pos[ps-1] = 7
	if len(a.K) != ps || len(a.Used) != ps || cap(a.Pos) != ps || cap(a.Masked) != ps {
		t.Fatalf("a page's slot arrays hold %d/%d slots, want %d", len(a.K), cap(a.Pos), ps)
	}
	if b.Used[0] || b.Pos[0] != 0 || b.Visible != 0 {
		t.Error("writing one page's last slot reached the next page")
	}
	if rt.Page(0) != a {
		t.Error("a touched page was made again")
	}
	full := testRuntime(ExecFull)
	if p := full.Page(0); len(p.K[0]) == 0 {
		t.Error("a full-mode page carries no tensor data")
	}
}

// TestFullDistsShareOneSlab: a full-mode batch of get_next_dist calls hands
// each call a distribution of its own, bit-equal to the model's, cut from
// one pair of slabs and clipped to its length, so an append cannot reach a
// neighbour. A warm batch allocates nothing: the slabs hold a page of it.
func TestFullDistsShareOneSlab(t *testing.T) {
	rt := testRuntime(ExecFull)
	m := rt.Model
	clock := sim.NewClock()
	outs := []*model.EmbedSlot{rt.Embed(1), rt.Embed(2), rt.Embed(3)}
	if err := m.EmbedTokens([]int{5, 9, 14}, []int{0, 1, 2}, outs); err != nil {
		t.Fatal(err)
	}
	clock.Go("p", func() {
		b := &Batch{Op: OpNextDist, Model: rt}
		for i, of := range outs {
			b.Calls = append(b.Calls, armed(&Call{Op: OpNextDist, Model: rt, Seq: uint64(i), DistOf: of}, clock))
		}
		if allocs := testing.AllocsPerRun(1, func() {
			for _, c := range b.Calls {
				c.Res.Reset()
			}
			rt.execute(b)
		}); allocs != 0 {
			t.Errorf("a warm batch of %d distributions allocated %v times", len(b.Calls), allocs)
		}
		for i, c := range b.Calls {
			toks, probs, err := m.NextDist(outs[i])
			if err != nil || c.Err != nil {
				t.Fatal(err, c.Err)
			}
			d := c.Dist
			if !slices.Equal(d.Tokens, toks) || !slices.Equal(d.Probs, probs) {
				t.Errorf("call %d: the runtime's distribution differs from the model's", i)
			}
			if cap(d.Tokens) != m.DistLen() || cap(d.Probs) != m.DistLen() {
				t.Errorf("call %d: distribution of cap %d and %d, want %d", i, cap(d.Tokens), cap(d.Probs), m.DistLen())
			}
			if i > 0 && !adjacent(b.Calls[i-1].Dist.Tokens, d.Tokens) {
				t.Errorf("call %d: ids not cut from the slab after call %d's", i, i-1)
			}
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFullFusedSamplesLikeTheModel: a full-mode fused forward embeds its
// tokens into the runtime's input slots and samples from the runtime's
// distribution buffers, and draws what a forward on fresh slots and the
// model's own NextDist give. A second call on other tokens reuses the
// slots and still matches.
func TestFullFusedSamplesLikeTheModel(t *testing.T) {
	rt := testRuntime(ExecFull)
	m := rt.Model
	clock := sim.NewClock()
	spec := &SampleSpec{Temperature: 0.8, TopK: 40, Seed: 3}
	clock.Go("p", func() {
		for seq, ids := range [][]int{{5, 9, 14, 20}, {27, 35, 44, 54}} {
			pos := []int{0, 1, 2, 3}
			outs := []*model.EmbedSlot{rt.Embed(1), rt.Embed(2)}
			c := armed(&Call{Op: OpForward, Model: rt, Seq: uint64(seq), Sample: spec, FusedEmb: ids, FusedPos: pos, Outputs: outs}, clock)
			rt.execute(&Batch{Op: OpForward, Model: rt, Calls: []*Call{c}})
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			in, fresh := make([]*model.EmbedSlot, len(ids)), []*model.EmbedSlot{m.NewEmbedSlot(), m.NewEmbedSlot()}
			for i := range in {
				in[i] = m.NewEmbedSlot()
			}
			if err := m.EmbedTokens(ids, pos, in); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Forward(nil, in, nil, fresh, nil, ""); err != nil {
				t.Fatal(err)
			}
			for i, out := range fresh {
				toks, probs, err := m.NextDist(out)
				if err != nil {
					t.Fatal(err)
				}
				if want := sampleFrom(toks, probs, spec, uint64(seq)+uint64(i)); c.Sampled[i] != want {
					t.Errorf("call %d: sampled %d at output %d, want %d", seq, c.Sampled[i], i, want)
				}
			}
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}
