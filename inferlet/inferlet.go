// Package inferlet defines Pie's programming model (§4): inferlets are
// user programs that orchestrate LLM generation end to end by issuing
// fine-grained API calls against the serving system.
//
// An inferlet runs single-threaded inside a sandboxed, event-driven
// runtime (the paper uses WebAssembly; this reproduction runs Go closures
// under an equivalent cooperative sandbox — see internal/ilm). Concurrency
// within an inferlet comes from asynchronous, non-blocking API calls that
// return results, composed with the api package's combinators.
//
// The API is layered (v2). Session carries only what every inferlet
// needs: the core runtime, messaging and I/O, and model discovery.
// Everything model-bound hangs off a *Queue obtained from
// Session.Open, and each trait of Table 1 is a capability object
// negotiated from the queue:
//
//	q, _ := s.Open("llama-1b")
//	tok, _ := q.Tokenizer()       // trait: tokenize
//	alloc, _ := q.Alloc()         // trait: allocate
//	fwd, _ := q.Forward()         // trait: forward
//	sample, _ := q.Sample()       // trait: output_text
//
// Negotiation enforces the supertrait DAG (api.Supertraits): requesting a
// capability whose trait — or any transitive supertrait — the model lacks
// fails with api.ErrNoSuchTrait, so programs discover at queue-open time
// exactly which parts of the surface a model serves, and new traits can be
// added without widening any existing interface.
package inferlet

import (
	"strings"
	"time"

	"pie/api"
)

// Program is a deployable inferlet: the unit of service in Pie (the system
// "elevates programs, not prompts, to the basic unit of service").
type Program struct {
	// Name registers the program with the Inferlet Lifecycle Manager.
	Name string
	// BinarySize is the size in bytes of the compiled Wasm artifact this
	// program stands in for; it drives upload and JIT costs on cold
	// launches (Fig. 9). Table 2 of the paper records the real sizes.
	BinarySize int
	// Manifest declares the deployment contract: version, required
	// models/traits, and resource limits. The zero value is a valid
	// manifest (version "1.0.0", no requirements, no limits).
	Manifest Manifest
	// Run is the program body. A returned error is reported to the client
	// that launched the inferlet.
	Run func(s Session) error
}

// Manifest is a program's deployment contract. The registry validates it
// against the serving catalog's trait closure when the program is
// registered and again at launch, so an unsatisfiable deployment fails
// with api.ErrUnsatisfiedManifest up front instead of deep inside a
// running inferlet.
type Manifest struct {
	// Version is the artifact's semantic version ("major.minor.patch").
	// Empty defaults to "1.0.0". The registry keys artifacts by
	// name@version; launches without an explicit version get the latest.
	Version string
	// Models lists the model ids the program requires. Empty means any:
	// when Traits is also set, at least one catalog model must satisfy
	// every required trait.
	Models []api.ModelID
	// Traits lists the capability traits every required model must
	// implement (through the supertrait closure).
	Traits []api.Trait
	// Class names the service class launches of this program default to
	// (api.ServiceClass, registered in the engine config). A LaunchSpec
	// class overrides it. Empty means unclassed. When the engine has a
	// class registry, an unknown name fails launches typed
	// api.ErrNoSuchClass.
	Class string
	// Limits bounds the instance's resource consumption; zero fields are
	// unlimited.
	Limits Limits
}

// Limits are per-instance resource bounds declared in a Manifest and
// enforced by the control layer with api.ErrLimitExceeded.
type Limits struct {
	// MaxQueues caps concurrently open command queues.
	MaxQueues int
	// MaxKvPages caps live KV pages across the instance's address space.
	MaxKvPages int
	// Deadline bounds the instance's virtual runtime; on expiry the
	// instance is aborted with api.ErrDeadlineExceeded. A launch-spec
	// deadline tightens (never loosens) this bound.
	Deadline time.Duration
}

// Ref formats the registry key for a program at a version ("name@version").
func Ref(name, version string) string { return name + "@" + version }

// SplitRef splits a program reference into name and version; a bare name
// returns an empty version (meaning "latest").
func SplitRef(ref string) (name, version string) {
	if i := strings.IndexByte(ref, '@'); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return ref, ""
}

// Subscription is a handle on a broadcast topic (subscribe).
type Subscription interface {
	// Recv is the receive operation on the topic: each Get takes the
	// next message, and Done reports that a receive would not block.
	Recv() api.Future[string]
	// Cancel detaches from the topic.
	Cancel()
}

// Child is a handle on an inferlet spawned by another inferlet
// (inter-inferlet workflows such as Agent-SWARM).
type Child interface {
	// Send delivers a message to the child's receive queue.
	Send(msg string)
	// Recv is the receive operation on the child's messages to its
	// parent: each Get takes the next message, and Done reports that a
	// receive would not block.
	Recv() api.Future[string]
	// Wait resolves when the child finishes, with its error result.
	Wait() api.Future[error]
}

// Session is the core API an inferlet programs against: the control-layer
// runtime, messaging and I/O, and model discovery (§4, Table 1 "core"
// trait). All inference-layer access goes through Open, which returns a
// command-queue object whose trait capabilities are negotiated per model.
type Session interface {
	// --- Core runtime (control layer) ---

	// GetArg returns the launch arguments, read-only and shared by every call.
	GetArg() []string
	// Send delivers a message to the client that launched this inferlet.
	Send(msg string)
	// Receive is the receive on the client's messages: each Get takes one.
	Receive() api.Future[string]
	// Print emits a debug line through the runtime's log stream.
	Print(msg string)
	// InstanceID names this inferlet instance.
	InstanceID() string
	// Now returns the current time in the serving system's clock domain.
	Now() time.Duration
	// Sleep suspends the inferlet.
	Sleep(d time.Duration)
	// Yield lets other inferlets run.
	Yield()
	// Random returns sandboxed entropy (deterministic per instance).
	Random() uint64
	// ReportOutputTokens tells the runtime how many output tokens the
	// application has accepted (instrumentation; Fig. 11).
	ReportOutputTokens(n int)

	// --- Integrated I/O and messaging (control layer, §4.3) ---

	// HTTPGet performs an asynchronous HTTP GET against an external
	// service.
	HTTPGet(url string) Result[string]
	// HTTPPost performs an asynchronous HTTP POST.
	HTTPPost(url, body string) Result[string]
	// Broadcast publishes to every subscriber of a topic, in subscribe
	// order; no broadcast after a subscription's Cancel reaches it.
	Broadcast(topic, msg string)
	// Subscribe attaches to a topic.
	Subscribe(topic string) Subscription
	// Spawn launches another inferlet and returns a handle to it.
	Spawn(program string, args []string) (Child, error)

	// --- Model discovery ---

	// AvailableModels lists servable models, read-only and shared by every call.
	AvailableModels() []api.ModelInfo
	// AvailableTraits lists a model's declared traits.
	AvailableTraits(m api.ModelID) ([]api.Trait, error)

	// --- Command queues (the gateway to the inference layer) ---

	// Open creates a command queue against a model and returns the queue
	// object from which trait capabilities are negotiated. It fails with
	// api.ErrNoSuchModel when the model is not installed.
	Open(m api.ModelID, opts ...QueueOption) (*Queue, error)
}
