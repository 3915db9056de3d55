// Package ilm implements Pie's application layer (§5.1): the Inferlet
// Lifecycle Manager. It hosts the versioned program registry (deployable
// inferlet artifacts with manifests), launches inferlets into sandboxed
// cooperative processes, relays user↔inferlet messages, and hosts the
// broadcast/subscribe fabric for inter-inferlet collaboration.
//
// The paper executes inferlets as WebAssembly modules under wasmtime with
// pooled allocation preconfigured for 1,000 concurrent instances. Here the
// sandbox is a cooperative sim process whose only capability surface is
// the inferlet.Session interface — inferlets cannot reach the engine, the
// clock, or each other except through session calls, which preserves the
// isolation structure the paper relies on.
//
// Deployment API v2: programs register as name@version artifacts whose
// manifests (required models/traits, resource limits) are validated
// against the catalog's trait closure at register and launch time
// (api.ErrUnsatisfiedManifest). Launches take a LaunchSpec (version
// reference, args, priority, deadline, client tag) and return a handle
// with Abort. Launch costs reproduce the upload + JIT pipeline per
// replica: the first launch of an artifact on a replica is cold (per-byte
// upload and compile charges, priced by the device spec); warm launches
// hit the replica's LRU artifact cache.
package ilm

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"pie/api"
	"pie/inferlet"
	"pie/internal/core"
	"pie/internal/netsim"
	"pie/internal/sim"
)

// Launch-pipeline calibration (Fig. 9; see DESIGN.md §4): a
// single-threaded launch dispatcher serializes admission (its service time
// produces the latency growth with concurrent launches), while
// instantiation, upload, and JIT run in the launching process. Upload and
// JIT per-byte charges live on gpu.Spec (ArtifactCost) — they are replica
// properties now that each replica keeps its own artifact cache.
const (
	dispatchWarm     = 90 * time.Microsecond
	dispatchCold     = 100 * time.Microsecond
	instantiateFixed = 1200 * time.Microsecond
	poolSlots        = 1000 // wasmtime pooled-allocation preallocation
	poolOverflowCost = 5 * time.Millisecond
)

// Placer is the cluster side of the lifecycle: it decides which control
// layer hosts a new inferlet instance and answers the launch- and
// session-time questions the cluster layer owns. A cluster router places
// across replica controllers; a single-replica deployment always returns
// the same one.
type Placer interface {
	// Place picks the controller for a new instance. artifact is the
	// name@version cache key — the program-affinity policy probes
	// replicas' warm-artifact caches with it. It fails typed
	// (api.ErrReplicaLost) when no live replica can host the instance;
	// launches carrying a retry policy retry it.
	Place(program, artifact string, args []string) (*core.Controller, error)
	// AdmitLaunch is the saturation gate, consulted once per launch before
	// the dispatch pipeline with the launch's resolved service class and
	// effective priority. A zero outputCap admits at full quality; a
	// positive outputCap admits degraded — the ILM caps the launch's output
	// tokens and marks the instance for cheaper-model substitution. A typed
	// error (api.ErrOverloaded) rejects the launch without admitting it to
	// die.
	AdmitLaunch(class string, priority int) (outputCap int, err error)
	// LaunchFault is the transient-fault hook, consulted once per launch
	// attempt in deterministic order. A typed error
	// (api.ErrTransientFault) fails the attempt retryably.
	LaunchFault() error
	// MaybeHandoff is the prefill/decode hook, consulted at a session's
	// forward boundaries once its instance is marked HandoffPending. A true
	// return means the instance moved to the returned controller, which
	// replaces the session's binding. It runs synchronously in the
	// session's process, so transfer time is charged to the session.
	MaybeHandoff(ctl *core.Controller, inst *core.Instance) (*core.Controller, bool)
}

// LaunchSpec describes one inferlet launch (deployment API v2).
type LaunchSpec struct {
	// Program references a registered artifact: "name" (latest version)
	// or "name@version" (exact).
	Program string
	// Args are the launch arguments (GetArg inside the inferlet).
	Args []string
	// Class names the service class the launch runs under (SLO targets,
	// scheduler priority, degradation eligibility). Empty takes the
	// program manifest's Class; a name unknown to the engine's registry
	// fails the launch typed api.ErrNoSuchClass.
	Class string
	// Priority seeds the batch-scheduler priority of every command queue
	// the instance opens. Zero inherits the service class's Priority when
	// the launch resolves to a registered class.
	Priority int
	// Deadline bounds the instance's virtual runtime from launch; on
	// expiry it is aborted with api.ErrDeadlineExceeded. Combined with a
	// manifest deadline, the tighter bound wins. Zero means none.
	Deadline time.Duration
	// ClientTag is an opaque client label carried on the handle
	// (multi-tenant attribution in listings and logs).
	ClientTag string
	// Retry controls requeue-on-failure: a launch that dies retryably
	// (replica lost, transient fault) is re-placed onto a surviving
	// replica after capped exponential backoff. The zero value takes the
	// ILM's default policy (itself zero — no retries — unless configured).
	Retry RetryPolicy
}

// ProgramInfo describes one registered artifact (registry listings).
type ProgramInfo struct {
	Name       string
	Version    string
	Latest     bool // this version is what a bare-name launch resolves to
	BinarySize int
	Manifest   inferlet.Manifest
}

// Ref formats the artifact's registry key.
func (p ProgramInfo) Ref() string { return inferlet.Ref(p.Name, p.Version) }

// ILM is the inferlet lifecycle manager.
type ILM struct {
	clock    *sim.Clock
	place    Placer
	world    *netsim.World
	models   []api.ModelInfo              // catalog view for manifest validation
	programs map[string]map[string]*entry // name -> version -> artifact
	latest   map[string]string            // name -> highest registered version
	pins     map[string]string            // name -> pinned version (upgrade.go)
	running  map[uint64]*Handle           // live handles by ID (upgrade.go)
	topics   map[string]map[*subscription]struct{}
	live     int
	handleID uint64

	admitFree time.Duration // when serial launch admission is next free (attempt)

	defaultRetry RetryPolicy                 // applied when a LaunchSpec's Retry is zero
	retrySeq     uint64                      // seeds per-handle jitter streams
	classes      map[string]api.ServiceClass // service-class registry (nil = unchecked)

	// Stats.
	Launches     int
	ColdLaunches int // launches that paid the upload + JIT pipeline
	Aborts       int // instances cancelled via Handle.Abort (incl. deadline)
	Requeues     int // attempts re-placed after their replica died mid-run
	Retries      int // attempts retried before placement stuck (incl. transients)

	// UpgradeRequeues counts instances restarted onto a new pinned
	// version by a rolling upgrade (upgrade.go) — operator actions, kept
	// apart from failure Requeues and client Aborts.
	UpgradeRequeues int
}

// SetDefaultRetry installs the retry policy applied to launches whose
// spec leaves Retry zero. Call before launching.
func (m *ILM) SetDefaultRetry(p RetryPolicy) { m.defaultRetry = p }

// SetClasses installs the service-class registry. Once set, launch specs
// and program manifests naming an unknown class fail typed
// api.ErrNoSuchClass; with no registry, class names pass through
// unchecked (they still tag instances for attribution).
func (m *ILM) SetClasses(classes []api.ServiceClass) {
	if len(classes) == 0 {
		return
	}
	m.classes = make(map[string]api.ServiceClass, len(classes))
	for _, cl := range classes {
		m.classes[cl.Name] = cl
	}
}

// entry is one registered artifact.
type entry struct {
	prog    *inferlet.Program
	version string
	parsed  [3]int
}

func (e *entry) ref() string { return inferlet.Ref(e.prog.Name, e.version) }

// New starts the ILM on the clock. Launched instances are placed onto a
// control layer by place — the cluster router in multi-replica engines.
// models is the catalog view program manifests validate against.
func New(clock *sim.Clock, place Placer, world *netsim.World, models []api.ModelInfo) *ILM {
	m := &ILM{
		clock:    clock,
		place:    place,
		world:    world,
		models:   models,
		programs: make(map[string]map[string]*entry),
		latest:   make(map[string]string),
		running:  make(map[uint64]*Handle),
		topics:   make(map[string]map[*subscription]struct{}),
	}
	return m
}

// Register deploys a program artifact into the versioned registry. The
// manifest is validated against the catalog's trait closure now — an
// unsatisfiable deployment fails here, typed api.ErrUnsatisfiedManifest,
// instead of inside a running inferlet. Registering the same name@version
// twice is an error; registering a new version of an existing name is a
// normal rolling deployment (bare-name launches resolve to the highest
// version).
func (m *ILM) Register(p inferlet.Program) error {
	if p.Name == "" || p.Run == nil {
		return fmt.Errorf("ilm: program needs a name and a Run body")
	}
	version := p.Manifest.Version
	if version == "" {
		version = defaultVersion
	}
	version, err := CanonicalVersion(version) // "1.0" and "1.0.0" are one artifact
	if err != nil {
		return fmt.Errorf("%w: program %q: %v", api.ErrUnsatisfiedManifest, p.Name, err)
	}
	parsed, _ := parseVersion(version) // canonical: it parses
	if err := validateManifest(p.Name, p.Manifest, m.models); err != nil {
		return err
	}
	if p.Manifest.Class != "" && m.classes != nil {
		if _, ok := m.classes[p.Manifest.Class]; !ok {
			return fmt.Errorf("%w: program %q manifest names %q", api.ErrNoSuchClass, p.Name, p.Manifest.Class)
		}
	}
	if _, dup := m.programs[p.Name][version]; dup {
		return fmt.Errorf("ilm: program %q already registered", inferlet.Ref(p.Name, version))
	}
	cp := p
	cp.Manifest.Version = version
	if m.programs[p.Name] == nil {
		m.programs[p.Name] = make(map[string]*entry)
	}
	m.programs[p.Name][version] = &entry{prog: &cp, version: version, parsed: parsed}
	if cur, ok := m.latest[p.Name]; !ok {
		m.latest[p.Name] = version
	} else if curParsed, _ := parseVersion(cur); versionLess(curParsed, parsed) {
		m.latest[p.Name] = version
	}
	return nil
}

// resolve maps a program reference ("name" or "name@version") to its
// registry entry.
func (m *ILM) resolve(ref string) (*entry, error) {
	name, version := inferlet.SplitRef(ref)
	versions, ok := m.programs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", api.ErrNoSuchProgram, name)
	}
	if version == "" {
		// A pin (upgrade.go) fixes what the bare name means; otherwise it
		// floats to the highest registered version.
		if pinned, ok := m.pins[name]; ok {
			version = pinned
		} else {
			version = m.latest[name]
		}
	} else if v, err := CanonicalVersion(version); err != nil {
		return nil, fmt.Errorf("%w: %q has no version %q", api.ErrNoSuchProgram, name, version)
	} else {
		version = v // "name@1.0" resolves "1.0.0"
	}
	e, ok := versions[version]
	if !ok {
		return nil, fmt.Errorf("%w: %q has no version %q", api.ErrNoSuchProgram, name, version)
	}
	return e, nil
}

// Programs lists registered program names, sorted.
func (m *ILM) Programs() []string {
	out := make([]string, 0, len(m.programs))
	for n := range m.programs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ProgramInfos lists every registered artifact, sorted by name then
// version order.
func (m *ILM) ProgramInfos() []ProgramInfo {
	var out []ProgramInfo
	for _, name := range m.Programs() {
		versions := make([]*entry, 0, len(m.programs[name]))
		for _, e := range m.programs[name] {
			versions = append(versions, e)
		}
		sort.Slice(versions, func(i, j int) bool {
			return versionLess(versions[i].parsed, versions[j].parsed)
		})
		for _, e := range versions {
			out = append(out, ProgramInfo{
				Name:       name,
				Version:    e.version,
				Latest:     m.latest[name] == e.version,
				BinarySize: e.prog.BinarySize,
				Manifest:   e.prog.Manifest,
			})
		}
	}
	return out
}

// Handle is the client-side connection to a running inferlet. One handle
// spans every attempt of a retried launch: the client's mailboxes and done
// future survive requeues, so Wait/Recv keep working while the instance
// moves between replicas (messages already consumed by a dead attempt are
// lost — launch-level retry is at-least-once).
type Handle struct {
	ID        uint64
	Program   string
	Version   string
	ClientTag string
	ilm       *ILM
	ctl       *core.Controller // the replica control layer hosting the instance
	inst      *core.Instance
	proc      *sim.Proc
	toUser    *sim.Mailbox[string]
	toInflt   *sim.Mailbox[string]
	done      *sim.Future[error]
	killErr   error
	logs      []string

	// Service class resolved at launch (spec overrides manifest) and the
	// degradation verdict from the admission gate.
	class    string
	degraded bool

	// Retry machinery.
	spec         LaunchSpec
	entry        *entry
	policy       RetryPolicy
	retryRNG     *sim.RNG
	attempts     int           // attempts started (1 = first launch)
	backoffSpent time.Duration // cumulative backoff, charged against policy.Budget
	counted      bool          // counted in ilm.Launches (first successful attempt)
	requeuing    bool          // between attempts: last instance died, requeue pending
	aborted      error         // abort latched during the requeue gap
}

// Attempts reports how many launch attempts the handle has started
// (1 = no retries happened).
func (h *Handle) Attempts() int { return h.attempts }

// Class reports the service class the launch resolved to ("" = unclassed).
func (h *Handle) Class() string { return h.class }

// Degraded reports whether the admission gate admitted this launch
// degraded (output cap + cheaper-model substitution) instead of shedding
// it near saturation.
func (h *Handle) Degraded() bool { return h.degraded }

// Send delivers a message to the inferlet (the client side of
// send/receive).
func (h *Handle) Send(msg string) { h.toInflt.Send(msg) }

// Recv resolves with the inferlet's next message to the client.
func (h *Handle) Recv() *sim.Future[string] { return h.toUser.RecvFuture() }

// TryRecv drains one queued message without blocking.
func (h *Handle) TryRecv() (string, bool) { return h.toUser.TryRecv() }

// OnReadable runs fn once when TryRecv would next succeed or the inferlet
// has finished and will send no more (sim.Mailbox.OnReadable on the
// client-bound mailbox): at once if that already holds.
func (h *Handle) OnReadable(fn func()) { h.toUser.OnReadable(fn) }

// Wait blocks until the inferlet finishes and returns its error result.
func (h *Handle) Wait() error {
	err, _ := h.done.Get()
	return err
}

// Done reports whether the inferlet has finished.
func (h *Handle) Done() bool { return h.done.Done() }

// Abort cancels the inferlet: every page and embedding slot it holds
// returns to the pools (queue-scoped reclamation through the control
// layer — pending calls fail, page pins drop, offloaded pages unpin),
// and Wait resolves with api.ErrAborted. Aborting a finished or already
// aborted inferlet is a no-op. Must be called from the simulation: a
// process or a timer. It reports whether this call performed the abort.
func (h *Handle) Abort() bool { return h.abort(api.ErrAborted) }

func (h *Handle) abort(reason error) bool {
	if h.done.Done() {
		return false
	}
	if h.ctl != nil && h.ctl.AbortInstance(h.inst, reason) {
		h.ilm.Aborts++
		return true
	}
	// No live instance right now. If the handle is between retry attempts
	// (its last instance died and the requeue daemon is working), latch
	// the abort; the requeue loop honors it instead of relaunching.
	if h.requeuing && h.aborted == nil {
		h.aborted = reason
		h.ilm.Aborts++
		return true
	}
	return false
}

// Logs returns lines the inferlet emitted via Print.
func (h *Handle) Logs() []string { return append([]string(nil), h.logs...) }

// Stats exposes per-instance instrumentation (Fig. 10/11).
func (h *Handle) Stats() (controlCalls, inferCalls, outputTokens int) {
	return h.inst.ControlCalls, h.inst.InferCalls, h.inst.OutputTokens
}

// Launch starts an inferlet from a LaunchSpec. It must be called from a
// sim process (a client, another inferlet, or a test driver) and returns
// once the instance is running. The manifest is revalidated, the placer's
// saturation gate may shed best-effort launches typed api.ErrOverloaded,
// the placement policy picks a replica, and the launch is cold — paying
// the upload + JIT pipeline — iff that replica's artifact cache lacks the
// binary.
//
// With a RetryPolicy (on the spec or the ILM default), retryable failures
// — a replica dying during or after launch, an injected transient fault —
// are retried with capped exponential backoff: synchronous failures here
// in the caller's process, failures after Launch returned through a
// requeue daemon that re-places the same Handle onto a survivor.
func (m *ILM) Launch(spec LaunchSpec) (*Handle, error) {
	e, err := m.resolve(spec.Program)
	if err != nil {
		return nil, err
	}
	p := e.prog
	if err := validateManifest(p.Name, p.Manifest, m.models); err != nil {
		return nil, err
	}
	className := spec.Class
	if className == "" {
		className = p.Manifest.Class
	}
	if className != "" && m.classes != nil {
		cls, ok := m.classes[className]
		if !ok {
			return nil, fmt.Errorf("%w: %q", api.ErrNoSuchClass, className)
		}
		if spec.Priority == 0 {
			// The class contract carries the scheduler priority; an
			// explicit spec priority still wins.
			spec.Priority = cls.Priority
		}
	}
	outputCap, err := m.place.AdmitLaunch(className, spec.Priority)
	if err != nil {
		return nil, err
	}
	degraded := outputCap > 0
	if degraded {
		// Graceful degradation: the gate admitted the launch with a
		// shorter output budget instead of shedding it.
		spec.Args = degradeArgs(spec.Args, outputCap)
	}
	m.retrySeq++
	h := &Handle{
		Program:   p.Name,
		Version:   e.version,
		ClientTag: spec.ClientTag,
		class:     className,
		degraded:  degraded,
		ilm:       m,
		spec:      spec,
		entry:     e,
		policy:    spec.Retry.withDefaults(m.defaultRetry),
		retryRNG:  sim.NewRNG(0xFA17 ^ m.retrySeq*0x9E3779B97F4A7C15),
		toUser:    sim.NewMailbox[string](m.clock),
		toInflt:   sim.NewMailbox[string](m.clock),
		done:      sim.NewFuture[error](m.clock),
	}
	for {
		err := m.attempt(h)
		if err == nil {
			break
		}
		d, final := h.nextRetryDelay(err)
		if final != nil {
			h.done.Resolve(final)
			h.toUser.Close()
			h.toInflt.Close()
			return nil, final
		}
		m.Retries++
		m.clock.Sleep(d)
	}
	if d := effectiveDeadline(spec.Deadline, p.Manifest.Limits.Deadline); d > 0 {
		m.clock.After(d, func() { h.abort(fmt.Errorf("%w after %v", api.ErrDeadlineExceeded, d)) })
	}
	return h, nil
}

// attempt runs one launch attempt end to end: serial admission,
// transient-fault check, placement, instance registration, artifact
// upload/JIT, and finally spawning the inferlet process. On success the
// handle's ctl/inst/proc point at the new attempt and nil returns; on
// failure the handle is left instance-less and the caller decides whether
// to retry.
func (m *ILM) attempt(h *Handle) error {
	e := h.entry
	p := e.prog
	h.attempts++
	// Admission is serialized (single-threaded, like the ILM RPC front
	// end): the source of Fig. 9's latency growth under concurrent
	// launches. It is a serial server kept as a busy-until time: a launch
	// is admitted dispatchWarm after the later of its arrival and the
	// previous admission, so launches made in one instant go FIFO. Cold
	// launches pay the dispatch delta in the launching process once
	// placement has picked the replica (coldness is a per-replica property).
	now := m.clock.Now()
	m.admitFree = max(m.admitFree, now) + dispatchWarm
	m.clock.Sleep(m.admitFree - now)
	m.clock.Sleep(instantiateFixed)
	if m.live >= poolSlots {
		m.clock.Sleep(poolOverflowCost)
	}
	if err := m.place.LaunchFault(); err != nil {
		return err
	}
	// Placement happens after admission serializes the herd; the instance
	// registers with the control layer immediately, so load-aware
	// placement sees launches-in-flight (an instance still paying its
	// JIT) instead of an all-zeros tie.
	ctl, err := m.place.Place(p.Name, e.ref(), h.spec.Args)
	if err != nil {
		return err
	}

	if h.ID == 0 {
		m.handleID++
		h.ID = m.handleID
	}
	// The entry may have been swapped since the last attempt (a rolling
	// upgrade repointed the handle); the exported version follows it.
	h.Version = e.version
	h.ctl = ctl
	h.killErr = nil
	h.proc = nil
	h.inst = ctl.RegisterInstance(p.Name, nil, func(reason error) {
		h.killErr = reason
		if h.proc != nil {
			m.clock.Kill(h.proc)
		}
	})
	h.inst.MaxQueues = p.Manifest.Limits.MaxQueues
	h.inst.MaxKvPages = p.Manifest.Limits.MaxKvPages
	h.inst.DefaultPriority = h.spec.Priority
	h.inst.Class = h.class
	h.inst.Degraded = h.degraded

	cold := !ctl.HasArtifact(e.ref())
	if cold {
		// Upload + JIT on this replica, plus the dispatcher's extra
		// cold-admission handling. Concurrent launches of a
		// still-compiling artifact each pay the pipeline (the cache
		// admits on completion), reproducing Fig. 9's cold curve.
		m.clock.Sleep(dispatchCold - dispatchWarm + ctl.ArtifactCost(p.BinarySize))
	}
	ctl.AdmitArtifact(e.ref(), p.BinarySize, cold)
	if h.inst.Dead() {
		// Reclaimed while still compiling — FCFS contention
		// (api.ErrTerminated, final) or the replica died under the launch
		// (api.ErrReplicaLost, retryable). Counts as neither a launch nor
		// a cold launch.
		err := h.killErr
		if err == nil {
			err = api.ErrTerminated
		}
		return err
	}
	if !h.counted {
		// One logical launch however many attempts it takes.
		m.Launches++
		h.counted = true
	}
	if cold {
		m.ColdLaunches++
	}
	m.live++
	m.running[h.ID] = h

	sess := &session{ilm: m, handle: h, ctl: h.ctl, args: append([]string(nil), h.spec.Args...)}
	sess.rng = sim.NewRNG(0x5EED ^ uint64(h.ID))
	sess.inst = h.inst

	h.proc = m.clock.Go("inferlet:"+p.Name, func() {
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, killed := r.(sim.Killed); killed {
						err = h.killErr
						if err == nil {
							err = api.ErrTerminated
						}
						return
					}
					panic(r)
				}
			}()
			err = p.Run(sess)
		}()
		m.finishAttempt(h, sess, err)
	})
	h.inst.Proc = h.proc
	return nil
}

// finishAttempt runs in the inferlet process as an attempt ends, in any
// way: normal return, abort, deadline, FCFS termination, or replica
// death. Retryable failures with retry headroom hand the handle to a
// requeue daemon (backoff, then re-place on a survivor) and keep the
// client's done future and mailboxes open; everything else resolves the
// handle for good. The handle's ctl — not a launch-time capture — names
// the replica that releases the instance: a prefill/decode handoff may have
// moved the instance to a different replica mid-run.
func (m *ILM) finishAttempt(h *Handle, sess *session, err error) {
	sess.cancelSubscriptions()
	h.ctl.ReleaseInstance(h.inst)
	m.live--
	delete(m.running, h.ID)
	if err != nil && errors.Is(err, errUpgradeRestart) {
		// Rolling upgrade restart (upgrade.go): relaunch on the repointed
		// entry unconditionally — an operator action consumes no retry
		// budget, and the client's handle stays open across the restart.
		m.UpgradeRequeues++
		h.requeuing = true
		m.clock.GoDaemon("ilm:upgrade-requeue", func() {
			m.clock.Sleep(upgradeRequeueDelay)
			m.requeue(h)
		})
		return
	}
	if err != nil {
		d, final := h.nextRetryDelay(err)
		if final == nil {
			m.Requeues++
			h.requeuing = true
			m.clock.GoDaemon("ilm:requeue", func() {
				m.clock.Sleep(d)
				m.requeue(h)
			})
			return
		}
		err = final
	}
	h.done.Resolve(err)
	// Fail any client still waiting on messages (queued messages stay
	// readable); keep late client sends from piling up.
	h.toUser.Close()
	h.toInflt.Close()
}

// requeue re-places a handle whose previous attempt died retryably. It
// runs in the requeue daemon; synchronous attempt failures keep retrying
// here until the policy says stop, at which point the handle resolves
// with the final error (clients parked in Wait unpark typed).
func (m *ILM) requeue(h *Handle) {
	finalize := func(err error) {
		h.done.Resolve(err)
		h.toUser.Close()
		h.toInflt.Close()
	}
	for {
		if h.aborted != nil {
			// Abort (or deadline) latched while no instance was live.
			finalize(h.aborted)
			return
		}
		err := m.attempt(h)
		if err == nil {
			h.requeuing = false
			if h.aborted != nil {
				// Aborted mid-attempt, after the instance came back up:
				// kill it now; finishAttempt resolves the handle.
				h.ctl.AbortInstance(h.inst, h.aborted)
			}
			return
		}
		d, final := h.nextRetryDelay(err)
		if final != nil {
			finalize(final)
			return
		}
		m.Retries++
		m.clock.Sleep(d)
	}
}

// degradeArgs applies a degraded launch's output cap to its arguments:
// when args[0] is a JSON object (the apps-layer parameter convention),
// max_tokens is lowered to cap (or set if absent). Launches with
// non-JSON arguments pass through unchanged — the cheaper-model
// substitution in session.Open still applies. json.Marshal sorts object
// keys, so the rewrite is deterministic.
func degradeArgs(args []string, cap int) []string {
	if len(args) == 0 {
		return args
	}
	var params map[string]any
	if err := json.Unmarshal([]byte(args[0]), &params); err != nil || params == nil {
		return args
	}
	if mt, ok := params["max_tokens"].(float64); !ok || int(mt) > cap {
		params["max_tokens"] = cap
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return args
	}
	out := append([]string(nil), args...)
	out[0] = string(raw)
	return out
}

// effectiveDeadline combines a launch-spec deadline with a manifest
// deadline: the tighter nonzero bound wins.
func effectiveDeadline(spec, manifest time.Duration) time.Duration {
	switch {
	case spec <= 0:
		return manifest
	case manifest <= 0:
		return spec
	case spec < manifest:
		return spec
	default:
		return manifest
	}
}

// subscription implements inferlet.Subscription.
type subscription struct {
	ilm   *ILM
	topic string
	mb    *sim.Mailbox[string]
}

func (s *subscription) Recv() api.Future[string] { return s.mb.RecvFuture() }

func (s *subscription) Cancel() {
	if subs, ok := s.ilm.topics[s.topic]; ok {
		delete(subs, s)
	}
	s.mb.Close()
}

// broadcast fans a message out to every topic subscriber.
func (m *ILM) broadcast(topic, msg string) {
	for s := range m.topics[topic] {
		s.mb.Send(msg)
	}
}

func (m *ILM) subscribe(topic string) *subscription {
	s := &subscription{ilm: m, topic: topic, mb: sim.NewMailbox[string](m.clock)}
	if m.topics[topic] == nil {
		m.topics[topic] = make(map[*subscription]struct{})
	}
	m.topics[topic][s] = struct{}{}
	return s
}

// Live reports the number of running inferlets.
func (m *ILM) Live() int { return m.live }
