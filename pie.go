// Package pie is a programmable LLM serving system, reproducing "Pie: A
// Programmable Serving System for Emerging LLM Applications" (SOSP 2025).
//
// Pie decomposes the monolithic prefill–decode loop of conventional LLM
// serving into fine-grained service handlers and delegates end-to-end
// control of generation to user programs called inferlets. Applications
// gain explicit KV-cache management (R1), custom decoding loops (R2), and
// integrated computation and I/O (R3) without touching the serving system.
//
// The Engine assembles the three-layer architecture (§5):
//
//	application layer  — inferlet lifecycle manager, sandboxed sessions
//	control layer      — resource virtualization + batch scheduling
//	inference layer    — batched API handlers over the (simulated) GPU
//
// Everything runs on a deterministic virtual clock: construct an Engine,
// register programs, spawn client processes with Engine.Go, then call
// Engine.Run to drive the simulation to completion. See examples/ for
// runnable scenarios and DESIGN.md for the substitution policy that maps
// the paper's hardware to this pure-Go reproduction.
package pie

import (
	"errors"
	"fmt"
	"time"

	"pie/api"
	"pie/inferlet"
	"pie/internal/cluster"
	"pie/internal/core"
	"pie/internal/fleet"
	"pie/internal/ilm"
	"pie/internal/infer"
	"pie/internal/metrics"
	"pie/internal/model"
	"pie/internal/netsim"
	"pie/internal/sim"
)

// Re-exported programming-model types and errors, so applications that
// embed the engine need only import "pie": programs are written against
// Session, obtain a *Queue from Session.Open, and negotiate trait
// capabilities from it (see package inferlet for the full v2 API).
// Programs deploy with a Manifest (version, required models/traits,
// resource limits) and launch from a LaunchSpec.
type (
	Program  = inferlet.Program
	Manifest = inferlet.Manifest
	Limits   = inferlet.Limits
	Session  = inferlet.Session
	Queue    = inferlet.Queue

	// LaunchSpec describes one inferlet launch: program reference
	// ("name" or "name@version"), args, service class, default queue
	// priority, virtual deadline, and an opaque client tag.
	LaunchSpec = ilm.LaunchSpec
	// ProgramInfo describes one registered artifact (Engine.Programs).
	ProgramInfo = ilm.ProgramInfo
	// ServiceClass is an SLO contract launches run under: latency targets,
	// scheduler priority, and degradation eligibility (Config.Classes).
	ServiceClass = api.ServiceClass
)

// Spec builds the common LaunchSpec: a program reference plus positional
// launch arguments. Callers needing priority, deadline, or a client tag
// construct the LaunchSpec literal instead.
func Spec(program string, args ...string) LaunchSpec {
	return LaunchSpec{Program: program, Args: args}
}

// Re-exported API errors (see package api for the full set).
var (
	ErrNoSuchModel         = api.ErrNoSuchModel
	ErrNoSuchTrait         = api.ErrNoSuchTrait
	ErrQueueClosed         = api.ErrQueueClosed
	ErrNoSuchProgram       = api.ErrNoSuchProgram
	ErrUnsatisfiedManifest = api.ErrUnsatisfiedManifest
	ErrAborted             = api.ErrAborted
	ErrDeadlineExceeded    = api.ErrDeadlineExceeded
	ErrLimitExceeded       = api.ErrLimitExceeded
	ErrTerminated          = api.ErrTerminated
	ErrNoSuchClass         = api.ErrNoSuchClass
	ErrNoDecodeCapacity    = api.ErrNoDecodeCapacity

	// Fault-tolerance errors: replica death surfaced to waiters, launches
	// shed at admission, injected transient faults, and retry exhaustion.
	ErrReplicaLost          = api.ErrReplicaLost
	ErrOverloaded           = api.ErrOverloaded
	ErrTransientFault       = api.ErrTransientFault
	ErrRetryBudgetExhausted = api.ErrRetryBudgetExhausted
)

// ErrNotFleetManaged is returned by ApplyFleet on an engine that was not
// built from a fleet manifest (Config.Fleet unset).
var ErrNotFleetManaged = errors.New("pie: engine is not fleet-managed (start it with Config.Fleet)")

// ExecutionMode selects functional fidelity (see internal/infer).
type ExecutionMode int

const (
	// ModeFull runs real tensor math on the tiny functional model:
	// correct token distributions, attention, page semantics.
	ModeFull ExecutionMode = iota
	// ModeTiming skips tensor math but keeps every timing charge and all
	// resource bookkeeping; used for large-scale experiments.
	ModeTiming
)

// Policy names a batch-scheduling strategy (§6.1, Table 5).
type Policy = core.SchedPolicy

// Re-exported scheduling policies.
const (
	PolicyAdaptive = core.PolicyAdaptive
	PolicyEager    = core.PolicyEager
	PolicyKOnly    = core.PolicyKOnly
	PolicyTOnly    = core.PolicyTOnly
)

// PlacementPolicy names a cluster routing strategy (internal/cluster).
type PlacementPolicy = cluster.PlacementPolicy

// Re-exported placement policies.
const (
	PlaceRoundRobin      = cluster.PlaceRoundRobin
	PlaceLeastLoaded     = cluster.PlaceLeastLoaded
	PlaceKVAffinity      = cluster.PlaceKVAffinity
	PlaceProgramAffinity = cluster.PlaceProgramAffinity
)

// SLO-aware serving (internal/cluster): the saturation-guarded, cost-aware
// scaler, heterogeneous replica pools, and per-class attainment stats.
type (
	// ScalerConfig tunes the SLO scaler, the engine's one scaling loop:
	// saturation-guarded scale-up with a cold-start hold,
	// cheapest-variant-meeting-SLO selection, and scale-to-zero.
	ScalerConfig = cluster.ScalerConfig
	// ReplicaVariant describes one hardware class in a heterogeneous
	// replica pool: a name, a cost rate, and a kernel slowdown.
	ReplicaVariant = cluster.ReplicaVariant
	// ClassStat snapshots one service class's cumulative SLO attainment
	// and degradation counters (Stats.Classes).
	ClassStat = cluster.ClassStat
)

// Prefill/decode disaggregation (internal/cluster): role-aware replica
// pools with KV handoff over the modeled interconnect.
type (
	// Role is a replica's serving phase assignment: unified (both
	// phases, the default), prefill, or decode.
	Role = cluster.Role
	// RoleSpec assigns a role to a run of replicas in ID order
	// (Config.Roles).
	RoleSpec = cluster.RoleSpec
)

// Re-exported replica roles.
const (
	RoleUnified = cluster.RoleUnified
	RolePrefill = cluster.RolePrefill
	RoleDecode  = cluster.RoleDecode
)

// Fault-tolerance configuration (internal/cluster, internal/ilm): replica
// health checking, saturation load shedding, deterministic fault
// injection, and launch retry policies.
type (
	// HealthConfig tunes the replica health monitor (healthy → suspect →
	// dead → replaced). The zero value disables it.
	HealthConfig = cluster.HealthConfig
	// ShedConfig tunes the saturation guard that sheds best-effort
	// (negative-priority) launches with ErrOverloaded. The zero value
	// disables it.
	ShedConfig = cluster.ShedConfig
	// FaultPlan is a deterministic, seeded failure schedule replayed
	// against the replicas (chaos experiments).
	FaultPlan = cluster.FaultPlan
	// FaultEvent schedules one replica fault at a virtual instant.
	FaultEvent = cluster.FaultEvent
	// FaultKind names a replica fault: crash-stop, hang, or slow-down.
	FaultKind = cluster.FaultKind
	// HealthState is a replica's position in the failure state machine.
	HealthState = cluster.HealthState
	// RetryPolicy controls launch requeue-on-failure: attempts, capped
	// exponential backoff with deterministic jitter, and a backoff budget.
	RetryPolicy = ilm.RetryPolicy
)

// Re-exported fault kinds and health states.
const (
	FaultCrash = cluster.FaultCrash
	FaultHang  = cluster.FaultHang
	FaultSlow  = cluster.FaultSlow

	HealthHealthy = cluster.HealthHealthy
	HealthSuspect = cluster.HealthSuspect
	HealthDead    = cluster.HealthDead
)

// ParseFaultPlan parses a compact fault-plan spec, e.g.
// "crash:1@200ms,hang:2@300ms,slow:3@100ms*4" (CLI flags).
func ParseFaultPlan(spec string) (FaultPlan, error) { return cluster.ParseFaultPlan(spec) }

// RandomFaultPlan derives a seeded random kill/hang/slow schedule over
// (0, window] for chaos tests; replica 0 is never faulted.
func RandomFaultPlan(seed uint64, replicas, events int, window time.Duration) FaultPlan {
	return cluster.RandomFaultPlan(seed, replicas, events, window)
}

// EvictionPolicy selects the tiered-KV offload victim policy
// (internal/core).
type EvictionPolicy = core.EvictionPolicy

// Re-exported eviction policies.
const (
	EvictLRU      = core.EvictLRU
	EvictPriority = core.EvictPriority
)

// Config parameterizes an Engine.
type Config struct {
	// Seed drives every random stream (weights, workloads, sampling).
	Seed uint64
	// Mode selects functional fidelity. Default ModeFull.
	Mode ExecutionMode
	// Policy selects the batch scheduler strategy. Default PolicyAdaptive.
	Policy Policy
	// ClientRTT is the client↔server network round trip (default 8ms,
	// calibrated to the paper's launch-latency floor).
	ClientRTT time.Duration
	// NoSchedOverhead and NoDistReturnOverhead zero the corresponding
	// control-layer charges for the Table 3 opportunity-cost ablation.
	NoSchedOverhead      bool
	NoDistReturnOverhead bool
	// Replicas is the number of backend replicas, each a full serving
	// stack (device, scheduler, KV pools) behind one cluster router.
	// Default 1: the paper's single-device engine.
	Replicas int
	// Placement selects the cluster routing policy. Default round-robin.
	Placement PlacementPolicy
	// Classes registers the service-class contracts launches may run
	// under: latency targets, scheduler priority, and degradation
	// eligibility. Launches naming an unknown class fail ErrNoSuchClass.
	Classes []ServiceClass
	// Variants assigns hardware classes across the replica pool in ID
	// order (heterogeneous serving: cost rate + kernel slowdown per
	// variant). Empty keeps the homogeneous default pool.
	Variants []ReplicaVariant
	// Roles assigns serving phases (prefill/decode/unified) across the
	// replica pool in ID order. With any non-unified role present, new
	// launches route to prefill capacity and sessions hand their KV state
	// off to a decode replica after the first token; the split is where
	// the fleet starts, and the role balancer moves replicas between
	// prefill and decode as the load asks. Empty keeps every replica
	// unified — the classic colocated configuration.
	Roles []RoleSpec
	// HandoffBudget bounds concurrent in-flight prefill->decode KV
	// transfers (default 2); excess handoffs queue FIFO.
	HandoffBudget int
	// Scaler enables the SLO scaler: saturation-guarded, cost-aware
	// scale-up/down driven by per-class attainment. When Scaler.Max
	// exceeds Replicas, the extra replicas are built cold.
	Scaler ScalerConfig
	// HostKVRatio sizes each replica's host-memory KV tier as a multiple
	// of the device page capacity (e.g. 1.0 doubles effective KV
	// capacity; cold pages spill over PCIe and fault back on use).
	// Default 0: device-only pools, the paper's configuration.
	HostKVRatio float64
	// KVEviction selects the offload victim policy: EvictLRU (default)
	// or EvictPriority (queue-priority-aware, LRU within a class).
	KVEviction EvictionPolicy
	// KVPagesOverride overrides every model's device page capacity
	// derived from GPU memory geometry (0 keeps the geometry). Used by
	// oversubscription experiments and tests.
	KVPagesOverride int
	// ArtifactCacheBytes sizes each replica's warm-artifact cache (the
	// compiled program binaries resident there; cold launches pay upload
	// + JIT, warm ones skip it). 0 takes the device default (8 MB, which
	// holds every Table 2 binary); negative disables eviction.
	ArtifactCacheBytes int64
	// Health enables and tunes replica failure detection and recovery:
	// dead replicas are taken out of rotation, their in-flight inferlets
	// aborted typed (ErrReplicaLost) and requeued when retried, their
	// exports declared lost, and a cold spare activated as replacement.
	Health HealthConfig
	// Shed enables the saturation guard: best-effort (negative-priority)
	// launches are rejected with ErrOverloaded when aggregate KV or queue
	// utilization crosses the watermarks.
	Shed ShedConfig
	// Faults injects a deterministic failure schedule (chaos testing):
	// replica crash/hang/slow events plus a transient per-launch failure
	// rate, all byte-identically reproducible from the plan's seed.
	Faults FaultPlan
	// DefaultRetry applies to launches whose LaunchSpec.Retry is zero.
	// The zero value keeps failures final (no retries).
	DefaultRetry RetryPolicy
	// Fleet, when set, makes the deployment declaratively managed: the
	// engine builds every pool's full capacity (active replicas aligned
	// per pool), starts the reconciling fleet controller, and applies
	// program pins. Build the rest of the Config from the same manifest
	// with ConfigFromManifest; Engine.ApplyFleet hot-reloads it.
	Fleet *fleet.Manifest
}

// ConfigFromManifest converts a validated fleet manifest into the engine
// Config it declares: pool topology (variants, roles, counts), placement,
// service classes, the SLO scaler, and KV policy, with Fleet set so New
// starts the reconciling controller. Caller-side fields the manifest does
// not speak to (Mode, ClientRTT, retry policy, ...) keep their zero
// values — set them after, as pie-server does from its flags.
func ConfigFromManifest(m *fleet.Manifest) (Config, error) {
	if err := m.Validate(); err != nil {
		return Config{}, err
	}
	cfg := Config{
		Seed:      m.Seed,
		Replicas:  m.InitialActive(),
		Placement: m.PlacementPolicy(),
		Variants:  m.ReplicaVariants(),
		Roles:     m.RoleSpecs(),
		Classes:   m.ServiceClasses(),
		Scaler:    m.ScalerConfig(),
		Fleet:     m,
	}
	if kv := m.KV; kv != nil {
		cfg.HostKVRatio = kv.HostRatio
		cfg.KVEviction = m.EvictionPolicy()
		cfg.KVPagesOverride = kv.PagesOverride
	}
	return cfg, nil
}

func (c Config) withDefaults() Config {
	if c.ClientRTT == 0 {
		c.ClientRTT = 8 * time.Millisecond
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// Engine is one Pie serving deployment on its own virtual clock.
type Engine struct {
	cfg     Config
	clock   *sim.Clock
	catalog *model.Catalog
	cluster *cluster.Cluster
	ilm     *ilm.ILM
	world   *netsim.World
	fleet   *fleet.Controller // nil unless Config.Fleet is set
}

// New assembles an engine. The standard catalog (llama-1b/3b/8b) is always
// installed; pick the model per command queue. With cfg.Replicas > 1 (or
// a scaler or fleet with headroom) the engine builds one full serving
// stack per replica — its own device, scheduler, and KV pools — behind the
// cluster router; model weights and the tokenizer are shared read-only.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	clock := sim.NewClock()
	cat := model.StandardCatalog(cfg.Seed)
	mode := infer.ExecFull
	if cfg.Mode == ModeTiming {
		mode = infer.ExecTiming
	}
	var models []*model.Model
	for _, name := range cat.Names() {
		m, _ := cat.Get(name)
		models = append(models, m)
	}
	sched := core.DefaultSchedConfig()
	sched.Policy = cfg.Policy
	if cfg.NoSchedOverhead {
		sched.SchedOverhead = 0
	}
	if cfg.NoDistReturnOverhead {
		sched.DistReturnOverhead = 0
	}
	total := cfg.Replicas
	if cfg.Scaler.Enabled && cfg.Scaler.Max > total {
		total = cfg.Scaler.Max
	}
	if cfg.Fleet != nil && cfg.Fleet.TotalBuilt() > total {
		// Pools with headroom (max > count) build their full capacity;
		// the fleet controller decides which replicas serve.
		total = cfg.Fleet.TotalBuilt()
	}
	variants := cluster.ExpandVariants(cfg.Variants, total)
	roles := cluster.ExpandRoles(cfg.Roles, total)
	offload := core.OffloadConfig{HostRatio: cfg.HostKVRatio, Eviction: cfg.KVEviction}
	artifacts := core.ArtifactConfig{CapacityBytes: cfg.ArtifactCacheBytes}
	replicas := make([]*cluster.Replica, 0, total)
	for i := 0; i < total; i++ {
		v := variants[i]
		backend := infer.NewBackend(clock, fmt.Sprintf("%s-%d", v.Name, i))
		if v.Slowdown > 1 {
			backend.Device.SetSlowdown(v.Slowdown)
		}
		rts := make([]*infer.ModelRuntime, 0, len(models))
		for _, m := range models {
			rt := infer.NewModelRuntime(m, mode)
			if cfg.KVPagesOverride > 0 {
				rt.PageCapacity = cfg.KVPagesOverride
			}
			rts = append(rts, rt)
		}
		replicas = append(replicas, &cluster.Replica{
			ID:          i,
			Backend:     backend,
			Ctl:         core.NewController(clock, backend, rts, sched, offload, artifacts),
			Variant:     v.Name,
			CostRate:    v.CostRate,
			SpeedFactor: v.Slowdown,
			Role:        roles[i],
		})
	}
	cl := cluster.New(clock, cfg.Placement, replicas, cfg.Replicas)
	if len(cfg.Classes) > 0 {
		cl.RegisterClasses(cfg.Classes)
	}
	for _, r := range replicas {
		if r.Role != cluster.RoleUnified {
			cl.EnableHandoff(cluster.HandoffConfig{Budget: cfg.HandoffBudget})
			break
		}
	}
	if cfg.Scaler.Enabled {
		cl.EnableScaler(cfg.Scaler)
	}
	if cfg.Health.Enabled {
		cl.EnableHealth(cfg.Health)
	}
	if cfg.Shed.Enabled {
		cl.EnableShedding(cfg.Shed)
	}
	if !cfg.Faults.Empty() {
		if err := cl.InjectFaults(cfg.Faults); err != nil {
			panic(err)
		}
	}
	world := netsim.NewWorld(clock)
	lifecycle := ilm.New(clock, cl, world, replicas[0].Ctl.ModelInfos())
	if cfg.DefaultRetry.Enabled() {
		lifecycle.SetDefaultRetry(cfg.DefaultRetry)
	}
	lifecycle.SetClasses(cfg.Classes)
	e := &Engine{
		cfg: cfg, clock: clock, catalog: cat,
		cluster: cl, ilm: lifecycle, world: world,
	}
	if cfg.Fleet != nil {
		e.fleet = fleet.NewController(clock, cl, lifecycle, cfg.Fleet)
		// cluster.New activated the first cfg.Replicas IDs; realign to the
		// manifest's per-pool desired sets before any traffic, then start
		// the reconcile daemon.
		e.fleet.AlignInitial()
		e.fleet.Start()
	}
	return e
}

// Register deploys an inferlet program into the versioned registry,
// validating its manifest against the catalog (ErrUnsatisfiedManifest on
// requirements the installed models cannot serve). Registering a new
// version of an existing name is a rolling deployment: bare-name launches
// resolve to the highest version.
func (e *Engine) Register(p inferlet.Program) error { return e.ilm.Register(p) }

// MustRegister is Register for static program sets; it panics on error.
func (e *Engine) MustRegister(ps ...inferlet.Program) {
	for _, p := range ps {
		if err := e.ilm.Register(p); err != nil {
			panic(err)
		}
	}
}

// Programs lists every registered artifact with its manifest, sorted by
// name then version.
func (e *Engine) Programs() []ProgramInfo { return e.ilm.ProgramInfos() }

// ApplyFleet hot-reloads the fleet manifest: desired state is validated,
// checked compatible (pool counts, program pins, placement, and reconcile
// tuning may change live; topology changes fail typed fleet.ErrImmutable),
// and converged on subsequent reconcile ticks. Fails when the engine was
// not built from a manifest. Must be called from a sim process.
func (e *Engine) ApplyFleet(m *fleet.Manifest) error {
	if e.fleet == nil {
		return ErrNotFleetManaged
	}
	return e.fleet.Apply(m)
}

// FleetStatus reports the fleet controller's desired-vs-actual view; ok
// is false when the engine is not fleet-managed.
func (e *Engine) FleetStatus() (fleet.Status, bool) {
	if e.fleet == nil {
		return fleet.Status{}, false
	}
	return e.fleet.Status(), true
}

// FleetController exposes the reconciling controller (nil unless the
// engine was built from a manifest) — experiment and test surface.
func (e *Engine) FleetController() *fleet.Controller { return e.fleet }

// RegisterTool installs an external service reachable from inferlets and
// baseline clients via HTTP calls. handler runs in a clock timer when the
// response is due, so it must not block.
func (e *Engine) RegisterTool(name string, latency time.Duration, handler func(req string) string) {
	e.world.Register(&netsim.Service{Name: name, Latency: latency, Handler: handler})
}

// Handle is the client-side connection to a launched inferlet.
type Handle struct {
	h *ilm.Handle
}

// Send delivers a message to the inferlet.
func (h *Handle) Send(msg string) { h.h.Send(msg) }

// Recv resolves with the inferlet's next message.
func (h *Handle) Recv() api.Future[string] { return h.h.Recv() }

// TryRecv drains one queued message without blocking.
func (h *Handle) TryRecv() (string, bool) { return h.h.TryRecv() }

// OnReadable runs fn once, on the engine's goroutine, the next time the
// inferlet queues a message for the client or finishes — immediately if a
// message is already queued or it has finished. It consumes no message and
// parks no process: a watcher (pie-server's SSE handler) sleeps on it until
// TryRecv has something to drain, and may simply walk away. fn must not
// block. Call it from a sim process, and again after fn has run to keep
// watching.
func (h *Handle) OnReadable(fn func()) { h.h.OnReadable(fn) }

// Wait blocks the calling process until the inferlet finishes.
func (h *Handle) Wait() error { return h.h.Wait() }

// Done reports whether the inferlet finished.
func (h *Handle) Done() bool { return h.h.Done() }

// Logs returns the inferlet's Print output.
func (h *Handle) Logs() []string { return h.h.Logs() }

// Stats reports per-instance instrumentation: control-layer calls,
// inference-layer calls, and accepted output tokens (Fig. 10/11).
func (h *Handle) Stats() (controlCalls, inferCalls, outputTokens int) { return h.h.Stats() }

// Abort cancels the inferlet: queue-scoped reclamation frees every page
// and embedding slot it holds, in-flight calls fail, and Wait resolves
// with ErrAborted. A no-op on finished runs. Must be called from the
// simulation, a process or a timer; it reports whether this call performed
// the abort.
func (h *Handle) Abort() bool { return h.h.Abort() }

// Program reports the launched program name and resolved version.
func (h *Handle) Program() (name, version string) { return h.h.Program, h.h.Version }

// ClientTag reports the opaque client label from the LaunchSpec.
func (h *Handle) ClientTag() string { return h.h.ClientTag }

// Attempts reports how many placement attempts the launch has made: 1 on
// the happy path, more when the retry policy requeued it after a replica
// loss or transient fault.
func (h *Handle) Attempts() int { return h.h.Attempts() }

// Class reports the service class the launch resolved to ("" = unclassed).
func (h *Handle) Class() string { return h.h.Class() }

// Degraded reports whether admission degraded this launch (output cap +
// cheaper-model substitution) instead of shedding it near saturation.
func (h *Handle) Degraded() bool { return h.h.Degraded() }

// Launch starts an inferlet described by a LaunchSpec over the client
// link (one half RTT out; the full acknowledgement round trip is visible
// through Wait/Recv). Must be called from a sim process. The common case
// reads e.Launch(pie.Spec("name", args...)).
func (e *Engine) Launch(spec LaunchSpec) (*Handle, error) {
	e.clock.Sleep(e.cfg.ClientRTT / 2)
	h, err := e.ilm.Launch(spec)
	if err != nil {
		return nil, err
	}
	return &Handle{h: h}, nil
}

// LaunchAndWait runs an inferlet to completion and returns its logs.
func (e *Engine) LaunchAndWait(spec LaunchSpec) ([]string, error) {
	h, err := e.Launch(spec)
	if err != nil {
		return nil, err
	}
	if err := h.Wait(); err != nil {
		return h.Logs(), err
	}
	return h.Logs(), nil
}

// Go spawns a client/driver process on the engine's clock.
func (e *Engine) Go(name string, fn func()) { e.clock.Go(name, fn) }

// Run drives the simulation until every client process and inferlet
// finishes. It returns an error on deadlock.
func (e *Engine) Run() error { return e.clock.Run() }

// RunClient is the common single-client pattern: spawn fn and drive the
// simulation to completion.
func (e *Engine) RunClient(fn func()) error {
	e.Go("client", fn)
	return e.Run()
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.clock.Now() }

// Sleep suspends the calling sim process.
func (e *Engine) Sleep(d time.Duration) { e.clock.Sleep(d) }

// ClientRTT reports the configured client link round trip.
func (e *Engine) ClientRTT() time.Duration { return e.cfg.ClientRTT }

// Stats summarizes engine activity, aggregated across replicas.
type Stats struct {
	GPUBusy        time.Duration
	Kernels        int
	Batches        int
	BatchedCalls   int
	AvgBatch       float64
	MaxBatch       int
	Terminations   int
	Launches       int
	ColdLaunches   int
	Aborts         int
	ToolCalls      int
	ActiveReplicas int

	// Warm-artifact cache, aggregated across replicas (Fig. 9
	// economics: Misses paid upload + JIT, Hits skipped it).
	ArtifactHits      int
	ArtifactMisses    int
	ArtifactEvictions int

	// Tiered KV cache (zero when HostKVRatio is 0).
	KVDevicePages int // device-resident pages right now
	KVHostPages   int // host-resident (offloaded) pages right now
	KVPeakPages   int // high-water mark of live pages, both tiers
	SwapInPages   int // pages faulted host -> device
	SwapOutPages  int // pages offloaded device -> host
	SwapTime      time.Duration

	// Fault layer (all zero without health/shed/fault config).
	FaultsInjected  int           // replica fault events applied
	TransientFaults int           // injected transient launch failures
	ReplicasLost    int           // replicas declared dead
	Replacements    int           // cold spares activated for the dead
	ExportsLost     int           // KV exports lost with dead replicas
	Sheds           int           // best-effort launches shed at admission
	Requeues        int           // launches re-placed after replica death
	Retries         int           // launch attempts retried before placement stuck
	UpgradeRequeues int           // instances restarted onto a new pinned version
	DetectTime      time.Duration // cumulative failure-onset -> declared-dead latency

	// SLO-aware serving (zero without Classes/Scaler config).
	Degradations      int         // launches admitted degraded instead of shed
	ModelDowngrades   int         // queues opened on a cheaper substituted model
	ScaleToZeroEvents int         // idle-fleet drains to zero
	CostUnits         float64     // Σ replica cost-rate x active seconds
	Classes           []ClassStat // per-class SLO attainment, sorted by name

	// Prefill/decode disaggregation (zero without Config.Roles).
	Handoffs      int           // sessions migrated prefill -> decode
	HandoffPages  int           // distinct physical KV pages copied across
	HandoffTime   time.Duration // cumulative modeled interconnect time
	HandoffDenied int           // handoffs denied (no decode capacity)
	HandoffQueued int           // handoffs that waited on the transfer budget
}

// Stats snapshots engine counters. Per-device counters (busy time,
// kernels, batches) sum over replicas; MaxBatch is the cluster-wide max.
func (e *Engine) Stats() Stats {
	out := Stats{
		Launches:       e.ilm.Launches,
		ColdLaunches:   e.ilm.ColdLaunches,
		Aborts:         e.ilm.Aborts,
		ToolCalls:      e.world.Calls,
		ActiveReplicas: e.cluster.ActiveReplicas(),

		FaultsInjected:  e.cluster.FaultsInjected,
		TransientFaults: e.cluster.TransientFaults,
		ReplicasLost:    e.cluster.ReplicasLost,
		Replacements:    e.cluster.Replacements,
		ExportsLost:     e.cluster.ExportsLost,
		Sheds:           e.cluster.Sheds,
		Requeues:        e.ilm.Requeues,
		Retries:         e.ilm.Retries,
		UpgradeRequeues: e.ilm.UpgradeRequeues,
		DetectTime:      e.cluster.DetectTime,

		Degradations:      e.cluster.Degradations,
		ScaleToZeroEvents: e.cluster.ScaleToZeroEvents,
		CostUnits:         e.cluster.CostUnits(e.clock.Now()),
		Classes:           e.cluster.ClassStats(),

		Handoffs:      e.cluster.Handoffs,
		HandoffPages:  e.cluster.HandoffPages,
		HandoffTime:   e.cluster.HandoffTime,
		HandoffDenied: e.cluster.HandoffDenied,
		HandoffQueued: e.cluster.HandoffQueued,
	}
	for _, r := range e.cluster.Replicas() {
		s := r.Ctl.Scheduler()
		out.ModelDowngrades += r.Ctl.Downgrades
		out.GPUBusy += r.Backend.Device.BusyTime()
		out.Kernels += r.Backend.Device.Kernels()
		out.Batches += s.Batches
		out.BatchedCalls += s.BatchedCalls
		if s.MaxBatch > out.MaxBatch {
			out.MaxBatch = s.MaxBatch
		}
		out.Terminations += r.Ctl.Terminations
		art := r.Ctl.ArtifactStats()
		out.ArtifactHits += art.Hits
		out.ArtifactMisses += art.Misses
		out.ArtifactEvictions += art.Evictions
		off := r.Ctl.OffloadStats()
		out.KVDevicePages += off.DeviceInUse
		out.KVHostPages += off.HostInUse
		out.KVPeakPages += off.PeakInUse
		out.SwapInPages += off.SwapInPages
		out.SwapOutPages += off.SwapOutPages
		out.SwapTime += off.XferTime
	}
	if out.Batches > 0 {
		out.AvgBatch = float64(out.BatchedCalls) / float64(out.Batches)
	}
	return out
}

// ReplicaStats snapshots every replica's counters in ID order.
func (e *Engine) ReplicaStats() []metrics.ReplicaStats { return e.cluster.ReplicaStats() }

// PoolStats reports KV page occupancy for a model, summed over replicas.
func (e *Engine) PoolStats(modelName string) (inUse, capacity int) {
	for _, r := range e.cluster.Replicas() {
		u, c := r.Ctl.PoolStats(modelName)
		inUse += u
		capacity += c
	}
	return inUse, capacity
}

// Models lists the installed model ids.
func (e *Engine) Models() []string { return e.catalog.Names() }

// String describes the engine configuration.
func (e *Engine) String() string {
	return fmt.Sprintf("pie.Engine{mode=%d policy=%s replicas=%d placement=%s rtt=%v}",
		e.cfg.Mode, e.Controller().Scheduler().Config().Policy,
		len(e.cluster.Replicas()), e.cluster.Policy(), e.cfg.ClientRTT)
}

// Internal hooks for the experiment harness (internal/eval) and advanced
// tests. These expose internal types and are not part of the stable API.

// Clock returns the engine's virtual clock.
func (e *Engine) Clock() *sim.Clock { return e.clock }

// Cluster returns the multi-backend routing layer.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// Controller returns replica 0's control layer (the only one in
// single-replica engines).
func (e *Engine) Controller() *core.Controller { return e.cluster.Replicas()[0].Ctl }

// Backend returns replica 0's inference layer.
func (e *Engine) Backend() *infer.Backend { return e.cluster.Replicas()[0].Backend }

// Lifecycle returns the application layer.
func (e *Engine) Lifecycle() *ilm.ILM { return e.ilm }

// World returns the external-service registry.
func (e *Engine) World() *netsim.World { return e.world }
