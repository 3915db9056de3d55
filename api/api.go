// Package api defines the public vocabulary of the Pie serving system:
// resource handles, model traits, token distributions, and the future type
// returned by asynchronous inferlet API calls.
//
// The design follows §4 of the paper: Pie views an LLM forward pass as a
// three-stage pipeline (embed → forward → sample) over two explicitly
// managed resources — Embed (one token's embedding slot) and KvPage (a
// fixed-capacity page of KV-cache entries, PagedAttention-style). Handles
// are opaque pointers into a virtual, per-inferlet resource address space;
// the control layer owns the virtual→physical mapping.
package api

import (
	"errors"
	"time"
)

// Embed is a handle to a single token-embedding slot.
type Embed uint64

// KvPage is a handle to one KV-cache page holding up to PageSize tokens.
type KvPage uint64

// Queue identifies a command queue. All inference-layer API calls are
// issued against a queue; the batch scheduler uses queues to infer
// dependencies and priorities (§5.2).
type Queue uint64

// ModelID names a servable model (e.g. "llama-1b").
type ModelID string

// Trait names a capability set a model implements (§4.4). Traits form a
// DAG via supertraits; inferlets query them at runtime to adapt.
type Trait string

// The traits defined by the paper (Table 1) plus the fused-operation
// extension trait used for the Table 3 opportunity-cost ablation.
const (
	TraitCore       Trait = "core"        // runtime APIs: args, messaging, queues
	TraitAllocate   Trait = "allocate"    // embed/kvpage allocation, export/import
	TraitForward    Trait = "forward"     // forward pass + KV masking (supertrait: allocate)
	TraitInputText  Trait = "input_text"  // embed_txt (supertraits: allocate, forward)
	TraitInputImage Trait = "input_image" // embed_img (supertraits: allocate, forward)
	TraitTokenize   Trait = "tokenize"    // tokenize/detokenize/vocab (supertrait: input_text)
	TraitOutputText Trait = "output_text" // get_next_dist (supertrait: allocate)
	TraitAdapter    Trait = "adapter"     // forward_with_adapter (supertrait: forward)
	TraitFused      Trait = "fused"       // forward_with_sampling — monolithic-style fused ops
)

// Supertraits returns the traits a trait directly depends on.
func Supertraits(t Trait) []Trait {
	switch t {
	case TraitForward:
		return []Trait{TraitAllocate}
	case TraitInputText, TraitInputImage:
		return []Trait{TraitAllocate, TraitForward}
	case TraitTokenize:
		return []Trait{TraitInputText}
	case TraitOutputText:
		return []Trait{TraitAllocate}
	case TraitAdapter:
		return []Trait{TraitForward}
	case TraitFused:
		return []Trait{TraitForward, TraitOutputText}
	}
	return nil
}

// ModelInfo describes a servable model as reported by available_models.
type ModelInfo struct {
	ID        ModelID
	Params    string // human-readable parameter count, e.g. "8B"
	PageSize  int    // tokens per KvPage
	VocabSize int
	Traits    []Trait
	Adapters  []string // registered LoRA-style adapters
}

// HasTrait reports whether the model declares t directly. Most callers
// want HasTraitClosure: a declared trait implies its transitive
// supertraits (a model cannot implement `fused` without `forward` and
// `allocate`), and capability negotiation walks that closure.
func (m ModelInfo) HasTrait(t Trait) bool {
	for _, x := range m.Traits {
		if x == t {
			return true
		}
	}
	return false
}

// HasTraitClosure reports whether the model implements t, either by
// declaring it or because a declared trait transitively requires it
// through the Supertraits DAG. This is the check capability negotiation
// uses: e.g. a model declaring only TraitFused still satisfies
// TraitForward and TraitAllocate.
func (m ModelInfo) HasTraitClosure(t Trait) bool {
	for _, x := range m.Traits {
		if implies(x, t) {
			return true
		}
	}
	return false
}

// implies reports whether trait x is t or depends on it. The DAG is three
// levels deep, so the walk needs no visited set (and allocates nothing:
// capability negotiation runs several times per session).
func implies(x, t Trait) bool {
	if x == t {
		return true
	}
	for _, s := range Supertraits(x) {
		if implies(s, t) {
			return true
		}
	}
	return false
}

// Dist is a next-token probability distribution truncated to the top-K
// vocabulary entries (§4.2: Pie truncates to bound transfer cost; K is
// configurable, default 256). Tokens are ordered by descending probability.
// Both slices are read-only, Tokens like Probs: an engine may hand many calls
// the same Probs and overlapping windows of one Tokens table, so a sampler
// that sorts, filters or rescales must do it in a copy. (Both are clipped to
// their length: append copies.)
type Dist struct {
	Tokens []int
	Probs  []float32
}

// ArgMax returns the most probable token. It panics on an empty Dist.
func (d Dist) ArgMax() int {
	if len(d.Tokens) == 0 {
		panic("api: ArgMax of empty Dist")
	}
	return d.Tokens[0]
}

// Prob returns the probability mass of token id inside the truncated
// distribution, or 0 if id was truncated away.
func (d Dist) Prob(id int) float32 {
	for i, t := range d.Tokens {
		if t == id {
			return d.Probs[i]
		}
	}
	return 0
}

// Future is the completion handle returned by asynchronous API calls.
// Get blocks the calling inferlet (cooperatively — the runtime keeps
// serving other inferlets) until the result is available.
type Future[T any] interface {
	Get() (T, error)
	Done() bool
}

// ForwardArgs bundles the arguments of the forward API (§4.2).
//
// The call reads attention context from InputKv (respecting token-level
// mask bits), consumes InputEmb (each slot carries an explicit sequence
// position assigned by embed_txt), appends the new tokens' KV entries to
// OutputKv if non-empty, and writes the transformer outputs of the last
// len(OutputEmb) input tokens into OutputEmb.
//
// Mask, when non-nil, is an explicit boolean attention matrix with one row
// per input embedding and one column per context token followed by one
// column per input embedding; true admits attention. When nil, a causal
// mask is inferred from sequence positions.
type ForwardArgs struct {
	InputKv   []KvPage
	InputEmb  []Embed
	OutputKv  []KvPage
	OutputEmb []Embed
	Mask      [][]bool
	Adapter   string // non-empty selects forward_with_adapter
}

// SampleSpec configures fused on-GPU sampling (forward_with_sampling,
// TraitFused). Temperature <= 0 selects greedy decoding.
type SampleSpec struct {
	TopK        int
	Temperature float32
	Seed        uint64
}

// Message is a user↔inferlet or inferlet↔inferlet payload.
type Message struct {
	From string
	Body string
}

// ServiceClass is a named service-quality contract for launches. Classes
// are registered with the engine (pie.Config.Classes) and referenced by
// name from LaunchSpecs and program manifests; the cluster's scaling loop
// tracks per-class SLO attainment from live latency samples, and the
// admission layer may degrade (rather than shed) launches of Degradable
// classes near saturation.
type ServiceClass struct {
	// Name keys the class; LaunchSpec.Class and Manifest.Class reference it.
	Name string
	// TTFTTarget bounds time-to-first-token: launch to the first completed
	// forward pass. Zero means no TTFT objective.
	TTFTTarget time.Duration
	// ITLTarget bounds inter-token latency: the gap between successive
	// completed forward passes of one instance. Zero means no ITL objective.
	ITLTarget time.Duration
	// MinTokensPerSec is an advisory throughput objective (reported, not
	// yet enforced by the scaler).
	MinTokensPerSec float64
	// Priority seeds the batch-scheduler priority of launches in this class
	// whose LaunchSpec leaves Priority zero. Negative marks best-effort
	// traffic eligible for hard shedding.
	Priority int
	// Degradable opts launches of this class into graceful degradation:
	// near saturation they are admitted with a shorter output cap and a
	// cheaper model variant (trait-negotiated) instead of being shed.
	Degradable bool
}

// Errors shared across layers.
var (
	ErrNoSuchModel    = errors.New("pie: no such model")
	ErrNoSuchTrait    = errors.New("pie: model does not implement trait")
	ErrBadHandle      = errors.New("pie: invalid or foreign resource handle")
	ErrOutOfResources = errors.New("pie: resource pool exhausted")
	ErrTerminated     = errors.New("pie: inferlet terminated by resource policy")
	ErrNoSuchExport   = errors.New("pie: no exported resource with that name")
	ErrBadArgument    = errors.New("pie: invalid API argument")
	ErrQueueClosed    = errors.New("pie: command queue closed")
	ErrResultRead     = errors.New("pie: result already read") // a call's result is read once

	// Program-lifecycle errors (deployment API v2).

	// ErrNoSuchProgram reports a launch or lookup of a program (or
	// program@version) absent from the registry.
	ErrNoSuchProgram = errors.New("pie: no such program")
	// ErrUnsatisfiedManifest reports a program manifest whose requirements
	// (models, traits, limits, version syntax) the serving catalog cannot
	// satisfy. It is raised at register time, never from inside
	// a running inferlet.
	ErrUnsatisfiedManifest = errors.New("pie: program manifest unsatisfied by catalog")
	// ErrAborted reports an inferlet cancelled through its launch handle.
	ErrAborted = errors.New("pie: inferlet aborted by client")
	// ErrDeadlineExceeded reports an inferlet that outlived its launch or
	// manifest deadline and was reclaimed.
	ErrDeadlineExceeded = errors.New("pie: inferlet deadline exceeded")
	// ErrLimitExceeded reports an API call that would exceed a resource
	// limit declared in the program's manifest.
	ErrLimitExceeded = errors.New("pie: manifest resource limit exceeded")

	// Fault-tolerance errors (cluster health, retry, and admission).

	// ErrReplicaLost reports work stranded on a replica the cluster
	// declared dead: in-flight inferlets are aborted with it (and requeued
	// when the launch carries a retry policy), and waiters on its exports
	// see it instead of hanging.
	ErrReplicaLost = errors.New("pie: replica lost")
	// ErrOverloaded reports a best-effort launch shed by the saturation
	// guard: aggregate KV or queue utilization crossed the configured
	// watermark, so admission preserves goodput for high-priority traffic.
	ErrOverloaded = errors.New("pie: cluster overloaded, best-effort launch shed")
	// ErrTransientFault reports an injected or spurious per-call failure
	// that is safe to retry (fault-injection plans surface it).
	ErrTransientFault = errors.New("pie: transient fault")
	// ErrRetryBudgetExhausted reports a retried launch that ran out of its
	// RetryPolicy backoff budget before any attempt succeeded.
	ErrRetryBudgetExhausted = errors.New("pie: retry budget exhausted")

	// ErrNoSuchClass reports a launch or manifest referencing a service
	// class absent from the engine's registry (Config.Classes).
	ErrNoSuchClass = errors.New("pie: no such service class")

	// ErrNoDecodeCapacity reports a prefill/decode handoff that found no
	// decode-eligible replica to receive the session's KV pages: the
	// session keeps decoding on its prefill replica and the denial is
	// counted (disaggregated pools, internal/cluster).
	ErrNoDecodeCapacity = errors.New("pie: no decode-eligible replica for KV handoff")
)
