// Package infer implements Pie's inference layer (§5.3): the hardware
// execution backend. It receives batched API calls from the control layer
// across a simulated IPC boundary, prices them with the GPU cost model,
// executes them against the functional transformer, and reports results
// back to the control layer's event dispatcher.
//
// The backend runs in one of two execution modes:
//
//   - ExecFull: every forward/embed/sample op performs real tensor math on
//     the tiny functional model. Used by correctness tests, examples, and
//     content-sensitive workloads (EBNF decoding, watermarking, beam
//     search scoring).
//   - ExecTiming: tensor math is skipped; resource bookkeeping (page
//     occupancy, positions, mask bits, embed validity) still happens, and
//     all virtual-time charges are identical. Used by the large-scale
//     experiment harness (hundreds of concurrent inferlets) where paper
//     claims depend on timing structure, not token content.
package infer

import (
	"time"

	"pie/api"
	"pie/internal/model"
	"pie/internal/sim"
)

// Op enumerates the inference-layer API call types (one handler each).
type Op int

const (
	OpEmbedText Op = iota
	OpEmbedImage
	OpForward
	OpNextDist
	OpCopyKv
	OpMaskKv
	OpDetokenize
	OpGetVocabs
	// Control-side queue ops: never shipped to the backend, but they flow
	// through command queues for ordering.
	OpDealloc
	OpSync
)

var opNames = map[Op]string{
	OpEmbedText: "embed_txt", OpEmbedImage: "embed_img", OpForward: "forward",
	OpNextDist: "get_next_dist", OpCopyKv: "copy_kvpage", OpMaskKv: "mask_kvpage",
	OpDetokenize: "detokenize", OpGetVocabs: "get_vocabs",
	OpDealloc: "dealloc", OpSync: "synchronize",
}

// String returns the paper's API name for the op.
func (o Op) String() string { return opNames[o] }

// ControlSide reports whether the op is handled by the control layer
// without a backend round trip.
func (o Op) ControlSide() bool { return o == OpDealloc || o == OpSync }

// SampleSpec requests fused sampling inside a forward kernel (the
// forward_with_sampling extension used in the Table 3 ablation): the
// monolithic-style pipeline that samples on-GPU without returning a
// distribution.
type SampleSpec struct {
	TopK        int
	Temperature float32
	Seed        uint64
}

// Call is one inference-layer API invocation with all resource handles
// already resolved to physical objects by the control layer.
type Call struct {
	Op    Op
	Seq   uint64        // global submission order
	Enq   time.Duration // control-layer enqueue time
	Inst  uint64        // issuing inferlet instance id
	Model *ModelRuntime

	// OpForward
	CtxPages []*model.KvPage
	Inputs   []*model.EmbedSlot
	OutPages []*model.KvPage
	Outputs  []*model.EmbedSlot
	Mask     [][]bool
	Adapter  string
	Sample   *SampleSpec        // fused sampling (nil for the standard path)
	FusedTok *sim.Future[[]int] // fused sampling result
	FusedEmb []int              // fused input embedding: token ids
	FusedPos []int              //   ...and their positions

	// OpEmbedText
	TokenIDs  []int
	Positions []int
	// OpEmbedImage
	Blob []byte

	// OpNextDist
	DistOf  *model.EmbedSlot
	DistFut *sim.Future[DistResult]

	// OpCopyKv
	SrcPage, DstPage *model.KvPage
	SrcOff, DstOff   int
	NumTokens        int

	// OpMaskKv
	MaskPage *model.KvPage
	MaskBits []bool

	// OpDetokenize / OpGetVocabs
	TextFut  *sim.Future[string]
	VocabFut *sim.Future[[][]byte]

	// Ctl is the control layer's own record of the call (its queue, its
	// page pins); the inference layer carries it through a batch unread.
	Ctl any

	// Done, when set, resolves when the call completes (or fails). Calls
	// whose result travels in a typed future above leave it nil.
	Done *sim.Signal
	Err  error
}

// Fail completes every future the call carries that is still pending with
// c.Err: its completion signal and its typed result. The backend fails a
// call whose execution returned an error; the control layer fails the calls
// a closing queue never dispatched.
func (c *Call) Fail() {
	if c.Done != nil && !c.Done.Done() {
		c.Done.Fail(c.Err)
	}
	if c.DistFut != nil && !c.DistFut.Done() {
		c.DistFut.Fail(c.Err)
	}
	if c.TextFut != nil && !c.TextFut.Done() {
		c.TextFut.Fail(c.Err)
	}
	if c.VocabFut != nil && !c.VocabFut.Done() {
		c.VocabFut.Fail(c.Err)
	}
	if c.FusedTok != nil && !c.FusedTok.Done() {
		c.FusedTok.Fail(c.Err)
	}
}

// DistResult carries a truncated next-token distribution: the inferlet's
// api.Dist, produced in place.
type DistResult = api.Dist

// NewTokens returns the number of fresh tokens a call feeds the model.
func (c *Call) NewTokens() int {
	switch c.Op {
	case OpForward:
		if len(c.FusedEmb) > 0 {
			return len(c.FusedEmb)
		}
		return len(c.Inputs)
	case OpEmbedText:
		return len(c.TokenIDs)
	case OpEmbedImage:
		return c.Model.Model.EmbedsNeededForImage(len(c.Blob))
	}
	return 0
}

// PrefillTokens returns the fresh tokens of a bulk-prefill forward: one
// that feeds more than two. A forward of one or two tokens is a decode step
// and counts zero, as does every other op.
func (c *Call) PrefillTokens() int {
	if c.Op != OpForward {
		return 0
	}
	if n := c.NewTokens(); n > 2 {
		return n
	}
	return 0
}

// CtxTokens returns the number of context entries a forward attends over.
func (c *Call) CtxTokens() int {
	if c.Op != OpForward {
		return 0
	}
	n := 0
	for _, p := range c.CtxPages {
		n += p.Visible
	}
	return n
}

// Batch is a set of same-op calls dispatched as one kernel. Calls execute
// functionally in slice order at kernel completion, which makes vertical
// batching of dependent (chained) forwards from one queue correct by
// construction.
type Batch struct {
	Op    Op
	Model *ModelRuntime
	Calls []*Call
	// Extra is control-layer overhead charged onto this batch by the
	// scheduler (batch formation, distribution return — Table 3 rows).
	Extra time.Duration
	// SubmittedAt is stamped by Backend.Submit (Fig. 10 instrumentation).
	SubmittedAt time.Duration
}

// Cost prices the batch: one kernel launch and one weight stream per
// batch, marginal per-token terms summed over calls. This shared weight
// stream is the entire economics of batching (§5.2, Table 5).
func (b *Batch) Cost() time.Duration {
	return b.Extra + b.baseCost()
}

func (b *Batch) baseCost() time.Duration {
	spec := b.Model.Spec
	switch b.Op {
	case OpForward:
		// Calls feeding one or two tokens are decode steps (memory-bound
		// marginal); larger inputs are bulk prefill (compute-bound).
		decodeSeqs, prefillTok, ctxTok, fused, fusedEmbTok := 0, 0, 0, 0, 0
		for _, c := range b.Calls {
			if n := c.PrefillTokens(); n > 0 {
				prefillTok += n
			} else {
				decodeSeqs += c.NewTokens()
			}
			ctxTok += c.CtxTokens()
			if c.Sample != nil {
				fused++
			}
			fusedEmbTok += len(c.FusedEmb)
		}
		cost := spec.ForwardCost(decodeSeqs, prefillTok, ctxTok)
		if fused > 0 {
			cost += spec.FusedSampleCost(fused)
		}
		if fusedEmbTok > 0 {
			cost += time.Duration(fusedEmbTok) * spec.EmbedPerTok
		}
		return cost
	case OpEmbedText, OpEmbedImage:
		tok := 0
		for _, c := range b.Calls {
			tok += c.NewTokens()
		}
		return spec.EmbedCost(tok)
	case OpNextDist:
		return spec.SampleCost(len(b.Calls))
	case OpCopyKv:
		tok := 0
		for _, c := range b.Calls {
			tok += c.NumTokens
		}
		return spec.KvOpCost(tok)
	case OpMaskKv:
		tok := 0
		for _, c := range b.Calls {
			tok += len(c.MaskBits)
		}
		return spec.KvOpCost(tok)
	case OpDetokenize, OpGetVocabs:
		return TokenizerCost(len(b.Calls), 0)
	}
	return time.Microsecond
}

// TokenizerCost prices one tokenizer pass over calls that carry text bytes
// of input: a 3 µs launch plus 2 ns a byte, with 16 bytes of framing a call.
func TokenizerCost(calls, text int) time.Duration {
	return 3*time.Microsecond + time.Duration(text+16*calls)*2*time.Nanosecond
}
