package infer

import (
	"fmt"
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
		return &Call{Op: OpNextDist, Model: rt, Inst: inst, Seq: seq, DistOf: of, DistFut: sim.NewFuture[DistResult](clock)}
	}
	get := func(c *Call) []int {
		d, err := c.DistFut.Get()
		if err != nil {
			t.Fatal(err)
		}
		return d.Tokens
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
				c.DistFut = sim.NewFuture[DistResult](clock)
			}
			rt.execute(b)
		}); allocs > float64(len(b.Calls)) {
			t.Errorf("a batch of %d distributions allocated %v times besides their futures", len(b.Calls), allocs-float64(len(b.Calls)))
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
		c := &Call{Op: OpForward, Model: rt, Inst: 5, Seq: seq, Sample: &SampleSpec{}, FusedTok: sim.NewFuture[[]int](clock),
			FusedEmb: make([]int, outs), FusedPos: make([]int, outs)}
		for i := 0; i < outs; i++ {
			c.Outputs = append(c.Outputs, rt.Embed(int32(20+i)))
		}
		return c
	}
	clock.Go("p", func() {
		fwd := &Batch{Op: OpForward, Model: rt, Calls: []*Call{fused(4, 2), fused(5, 3)}}
		rt.execute(fwd)
		x, _ := fwd.Calls[0].FusedTok.Get()
		y, _ := fwd.Calls[1].FusedTok.Get()
		if len(x) != 2 || cap(x) != 2 || len(y) != 3 || !adjacent(x, y) {
			t.Errorf("fused sampling handed out %d (cap %d) and %d tokens, want 2 and 3 from one slab", len(x), cap(x), len(y))
		}
		alone := fused(5, 3)
		if err := rt.executeCall(alone); err != nil {
			t.Fatal(err)
		}
		if want, _ := alone.FusedTok.Get(); !slices.Equal(y, want) {
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
			blank := sim.NewFuture[DistResult](clock)
			c := &Call{Op: OpNextDist, Model: rt, Inst: 3, DistOf: slot, DistFut: sim.NewFuture[DistResult](clock)}
			var sum int
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				*c.DistFut = *blank // an unresolved future again
				c.Seq = uint64(n)
				if err := rt.executeCall(c); err != nil {
					b.Fatal(err)
				}
				d, _ := c.DistFut.Get()
				sum += d.Tokens[0] + len(d.Tokens)
			}
			sink = sum
		})
	}
}

var sink int
