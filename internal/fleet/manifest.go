// Package fleet implements declarative fleet management: a versioned
// manifest describing the desired cluster state — replica pools with
// hardware variants and serving roles, placement and KV policies, service
// classes, and program version pins — plus a reconciling controller
// (controller.go) that diffs desired against actual each tick and
// converges the cluster: growing and draining pools, completing two-phase
// drains, and rolling pinned programs onto new versions in bounded
// batches.
//
// The manifest is the write path for cluster state: pie-server loads one
// via -config at startup and hot-reloads it on SIGHUP or POST /v1/fleet.
// Every field the controller acts on is declared intent, and pie-server
// has no flag that says the same thing a second way.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"pie/api"
	"pie/internal/cluster"
	"pie/internal/core"
	"pie/internal/ilm"
)

// Typed manifest errors. Parse and Validate wrap every failure in exactly
// one of these, so callers (and the /v1/fleet handler) can branch on the
// failure class without parsing message text.
var (
	// ErrSyntax is a document that does not decode: malformed JSON,
	// unknown fields, bad durations, out-of-range values.
	ErrSyntax = errors.New("fleet: malformed manifest")
	// ErrUnknownReference is a dangling name: a pool naming an undeclared
	// variant, a pin naming an undeclared class, a model absent from the
	// catalog, an unknown placement/eviction/role keyword.
	ErrUnknownReference = errors.New("fleet: unknown reference")
	// ErrBadVersion is a program pin whose version is not semver, or an
	// unsupported manifest schema version.
	ErrBadVersion = errors.New("fleet: bad version")
	// ErrAmbiguousPool is a pool set the controller cannot act on
	// deterministically: no pools, duplicate names, desired counts
	// exceeding built capacity, pools that build nothing.
	ErrAmbiguousPool = errors.New("fleet: ambiguous pool definition")
	// ErrImmutable is a hot-reload that changes fields only a restart can:
	// pool topology, variants, classes, the scaler, KV geometry, the seed.
	ErrImmutable = errors.New("fleet: immutable field changed")
)

// CurrentSchema is the manifest schema version this build understands.
const CurrentSchema = 1

// CatalogModels are the model ids the standard catalog installs; a
// manifest's models list validates against them.
var CatalogModels = []string{"llama-1b", "llama-3b", "llama-8b"}

// Duration is a time.Duration that marshals as a parseable string
// ("250ms"), the manifest's on-disk form.
type Duration time.Duration

// Std converts to the standard library representation.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// UnmarshalJSON accepts duration strings only — a bare number is
// ambiguous (ns? ms?) and fails typed.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("%w: duration must be a string like \"250ms\", got %s", ErrSyntax, bytes.TrimSpace(b))
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("%w: bad duration %q", ErrSyntax, s)
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON renders the string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Manifest is the versioned desired-state document.
type Manifest struct {
	// Schema is the document schema version; must be CurrentSchema.
	Schema int `json:"schema"`
	// Seed drives every random stream; 0 (or absent) takes the server
	// default, the same seed pie-server boots at without -config.
	Seed uint64 `json:"seed,omitempty"`
	// Models restricts validation to catalog ids the deployment relies
	// on; empty accepts the full standard catalog.
	Models []string `json:"models,omitempty"`
	// Placement names the routing policy (cluster.ParsePlacement
	// keywords); empty means round-robin.
	Placement string `json:"placement,omitempty"`
	// Variants declares the hardware classes pools may reference.
	Variants []Variant `json:"variants,omitempty"`
	// Pools declares the replica pools in ID order: pool i occupies the
	// replica-ID range after pool i-1's built capacity.
	Pools []Pool `json:"pools"`
	// Classes declares the service-class contracts.
	Classes []Class `json:"classes,omitempty"`
	// Scaler, when present, hands pool-count ownership to the SLO scaler;
	// the controller then reconciles only pins and placement.
	Scaler *Scaler `json:"scaler,omitempty"`
	// Programs pins program names to exact versions: launches resolving
	// the bare name get the pinned version, and changing a pin triggers a
	// rolling upgrade.
	Programs []Pin `json:"programs,omitempty"`
	// KV tunes the tiered KV cache.
	KV *KV `json:"kv,omitempty"`
	// Reconcile tunes the controller loop.
	Reconcile Reconcile `json:"reconcile,omitempty"`
}

// Variant is one hardware class pools reference by name.
type Variant struct {
	Name string `json:"name"`
	// Cost is the cost-units-per-second price of one active replica
	// (default 1).
	Cost float64 `json:"cost,omitempty"`
	// Slowdown multiplies kernel cost relative to the reference device
	// (>= 1; default 1).
	Slowdown float64 `json:"slowdown,omitempty"`
}

// Pool is one replica pool: a contiguous run of replica IDs sharing a
// variant and a role.
type Pool struct {
	Name string `json:"name"`
	// Variant references a declared Variant by name; empty takes the
	// default reference hardware.
	Variant string `json:"variant,omitempty"`
	// Role is the serving phase: "unified" (default), "prefill", "decode".
	Role string `json:"role,omitempty"`
	// Count is the desired number of active replicas. The controller
	// converges the pool's active set to it each tick.
	Count int `json:"count"`
	// Max is the built capacity (replicas constructed, active or not);
	// 0 means Count. Count may be raised up to Max by a hot reload.
	Max int `json:"max,omitempty"`
}

// BuiltMax is the pool's built capacity with the Max-defaults-to-Count
// rule applied.
func (p Pool) BuiltMax() int {
	if p.Max > 0 {
		return p.Max
	}
	return p.Count
}

// Class is one service-class contract in manifest form.
type Class struct {
	Name string `json:"name"`
	// TTFT bounds time-to-first-token; zero means no objective.
	TTFT Duration `json:"ttft,omitempty"`
	// ITL bounds inter-token latency; zero means no objective.
	ITL Duration `json:"itl,omitempty"`
	// TPS is the advisory tokens-per-second objective.
	TPS float64 `json:"tps,omitempty"`
	// Priority seeds scheduler priority; negative marks best-effort.
	Priority int `json:"priority,omitempty"`
	// Degradable opts the class into graceful degradation near saturation.
	Degradable bool `json:"degradable,omitempty"`
}

// Scaler tunes the SLO scaler in manifest form. Zero fields take the
// cluster defaults.
type Scaler struct {
	Min          int      `json:"min,omitempty"`
	Max          int      `json:"max,omitempty"`
	Interval     Duration `json:"interval,omitempty"`
	SatHigh      float64  `json:"sat_high,omitempty"`
	SatLow       float64  `json:"sat_low,omitempty"`
	AttainTarget float64  `json:"attain_target,omitempty"`
	ScaleToZero  bool     `json:"scale_to_zero,omitempty"`
	IdleAfter    Duration `json:"idle_after,omitempty"`
}

// Pin pins one program name to an exact version.
type Pin struct {
	Name string `json:"name"`
	// Version is the semver the bare name resolves to ("1.2" canonicalizes
	// to "1.2.0").
	Version string `json:"version"`
	// Class optionally references a declared service class the program's
	// launches are expected to run under (documentation + validation; the
	// launch spec still decides).
	Class string `json:"class,omitempty"`
}

// Ref formats the pin's registry reference.
func (p Pin) Ref() string { return p.Name + "@" + p.Version }

// KV tunes the tiered KV cache in manifest form.
type KV struct {
	// HostRatio sizes the host-memory tier as a multiple of device page
	// capacity (0 disables offload).
	HostRatio float64 `json:"host_ratio,omitempty"`
	// Eviction is the offload victim policy: "lru" (default) or "priority".
	Eviction string `json:"eviction,omitempty"`
	// PagesOverride overrides device page capacity (0 keeps geometry).
	PagesOverride int `json:"pages_override,omitempty"`
}

// Reconcile tunes the controller loop. Zero fields take defaults; see the
// Effective* accessors for the semantics of negatives.
type Reconcile struct {
	// Interval is the reconcile tick period (default 10ms); a hot reload
	// may not change it.
	Interval Duration `json:"interval,omitempty"`
	// DrainDeadline is how long each upgrade batch may finish naturally
	// before stragglers are aborted and requeued onto the new version
	// (default 100ms; negative means no grace — requeue immediately).
	DrainDeadline Duration `json:"drain_deadline,omitempty"`
	// UpgradeBatch bounds how many old-version instances drain at once
	// during a rolling upgrade (default 2; negative means unbounded — the
	// whole fleet restarts in one batch, the naive-upgrade baseline).
	UpgradeBatch int `json:"upgrade_batch,omitempty"`
	// Prewarm, when unset or true, uploads the new version's artifact to
	// every serving replica before its batches drain, so relaunches are
	// warm. Explicit false skips it (the naive baseline).
	Prewarm *bool `json:"prewarm,omitempty"`
}

// Reconcile defaults.
const (
	defaultTick          = 10 * time.Millisecond
	defaultDrainDeadline = 100 * time.Millisecond
	defaultUpgradeBatch  = 2
)

// EffectiveInterval is the reconcile tick period with defaults applied.
func (r Reconcile) EffectiveInterval() time.Duration {
	if r.Interval <= 0 {
		return defaultTick
	}
	return r.Interval.Std()
}

// EffectiveDrainDeadline is the per-batch natural-finish grace: the
// default when zero, zero (immediate requeue) when negative.
func (r Reconcile) EffectiveDrainDeadline() time.Duration {
	switch {
	case r.DrainDeadline == 0:
		return defaultDrainDeadline
	case r.DrainDeadline < 0:
		return 0
	}
	return r.DrainDeadline.Std()
}

// EffectiveBatch is the rolling-upgrade batch size: the default when
// zero, effectively unbounded when negative.
func (r Reconcile) EffectiveBatch() int {
	switch {
	case r.UpgradeBatch == 0:
		return defaultUpgradeBatch
	case r.UpgradeBatch < 0:
		return math.MaxInt
	}
	return r.UpgradeBatch
}

// EffectivePrewarm reports whether upgrade prewarming is on (the default).
func (r Reconcile) EffectivePrewarm() bool { return r.Prewarm == nil || *r.Prewarm }

// Parse decodes and validates a manifest document. Unknown fields,
// trailing data, and every validation failure return one of the typed
// errors above.
func Parse(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		if errors.Is(err, ErrSyntax) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after manifest document", ErrSyntax)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// ParseFile is Parse over a file path.
func ParseFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	m, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Validate checks the manifest's internal consistency and returns the
// first violation as a typed error.
func (m *Manifest) Validate() error {
	if m.Schema != CurrentSchema {
		return fmt.Errorf("%w: unsupported manifest schema %d (this build understands %d)", ErrBadVersion, m.Schema, CurrentSchema)
	}
	known := make(map[string]bool, len(CatalogModels))
	for _, name := range CatalogModels {
		known[name] = true
	}
	for _, name := range m.Models {
		if !known[name] {
			return fmt.Errorf("%w: model %q is not in the catalog (%s)", ErrUnknownReference, name, strings.Join(CatalogModels, ", "))
		}
	}
	if m.Placement != "" {
		if _, err := cluster.ParsePlacement(m.Placement); err != nil {
			return fmt.Errorf("%w: placement %q", ErrUnknownReference, m.Placement)
		}
	}
	variants := make(map[string]Variant, len(m.Variants))
	for _, v := range m.Variants {
		if v.Name == "" {
			return fmt.Errorf("%w: variant with empty name", ErrSyntax)
		}
		if _, dup := variants[v.Name]; dup {
			return fmt.Errorf("%w: duplicate variant %q", ErrSyntax, v.Name)
		}
		if v.Cost < 0 {
			return fmt.Errorf("%w: variant %q has negative cost", ErrSyntax, v.Name)
		}
		if v.Slowdown != 0 && v.Slowdown < 1 {
			return fmt.Errorf("%w: variant %q slowdown must be >= 1", ErrSyntax, v.Name)
		}
		variants[v.Name] = v
	}
	if len(m.Pools) == 0 {
		return fmt.Errorf("%w: manifest declares no pools", ErrAmbiguousPool)
	}
	pools := make(map[string]bool, len(m.Pools))
	for _, p := range m.Pools {
		if p.Name == "" {
			return fmt.Errorf("%w: pool with empty name", ErrAmbiguousPool)
		}
		if pools[p.Name] {
			return fmt.Errorf("%w: duplicate pool %q", ErrAmbiguousPool, p.Name)
		}
		pools[p.Name] = true
		if p.Count < 0 {
			return fmt.Errorf("%w: pool %q has negative count", ErrAmbiguousPool, p.Name)
		}
		if p.Max < 0 {
			return fmt.Errorf("%w: pool %q has negative max", ErrAmbiguousPool, p.Name)
		}
		if p.BuiltMax() == 0 {
			return fmt.Errorf("%w: pool %q builds no replicas (count and max both 0)", ErrAmbiguousPool, p.Name)
		}
		if p.Max > 0 && p.Count > p.Max {
			return fmt.Errorf("%w: pool %q desires %d active replicas but builds only %d", ErrAmbiguousPool, p.Name, p.Count, p.Max)
		}
		if p.Variant != "" {
			if _, ok := variants[p.Variant]; !ok {
				return fmt.Errorf("%w: pool %q references undeclared variant %q", ErrUnknownReference, p.Name, p.Variant)
			}
		}
		if _, err := cluster.ParseRole(p.Role); err != nil {
			return fmt.Errorf("%w: pool %q role %q", ErrUnknownReference, p.Name, p.Role)
		}
	}
	classes := make(map[string]bool, len(m.Classes))
	for _, cl := range m.Classes {
		if cl.Name == "" {
			return fmt.Errorf("%w: service class with empty name", ErrSyntax)
		}
		if classes[cl.Name] {
			return fmt.Errorf("%w: duplicate service class %q", ErrSyntax, cl.Name)
		}
		classes[cl.Name] = true
		if cl.TTFT < 0 || cl.ITL < 0 {
			return fmt.Errorf("%w: service class %q has a negative latency target", ErrSyntax, cl.Name)
		}
	}
	if s := m.Scaler; s != nil {
		if s.Min < 0 || s.Max < 0 {
			return fmt.Errorf("%w: scaler bounds must be >= 0", ErrSyntax)
		}
		if s.Max > 0 && s.Max > m.TotalBuilt() {
			return fmt.Errorf("%w: scaler max %d exceeds built capacity %d", ErrSyntax, s.Max, m.TotalBuilt())
		}
		if s.Min > m.TotalBuilt() {
			return fmt.Errorf("%w: scaler min %d exceeds built capacity %d", ErrSyntax, s.Min, m.TotalBuilt())
		}
		if s.Min > 0 && s.Max > 0 && s.Min > s.Max {
			return fmt.Errorf("%w: scaler min %d exceeds max %d", ErrSyntax, s.Min, s.Max)
		}
	}
	pins := make(map[string]bool, len(m.Programs))
	for _, pin := range m.Programs {
		if pin.Name == "" {
			return fmt.Errorf("%w: program pin with empty name", ErrSyntax)
		}
		if pins[pin.Name] {
			return fmt.Errorf("%w: duplicate program pin %q", ErrSyntax, pin.Name)
		}
		pins[pin.Name] = true
		if _, err := ilm.CanonicalVersion(pin.Version); err != nil {
			return fmt.Errorf("%w: pin %q version %q is not semver", ErrBadVersion, pin.Name, pin.Version)
		}
		if pin.Class != "" && !classes[pin.Class] {
			return fmt.Errorf("%w: pin %q references undeclared class %q", ErrUnknownReference, pin.Name, pin.Class)
		}
	}
	if kv := m.KV; kv != nil {
		if kv.HostRatio < 0 {
			return fmt.Errorf("%w: kv host_ratio must be >= 0", ErrSyntax)
		}
		if kv.PagesOverride < 0 {
			return fmt.Errorf("%w: kv pages_override must be >= 0", ErrSyntax)
		}
		if kv.Eviction != "" {
			if _, err := core.ParseEviction(kv.Eviction); err != nil {
				return fmt.Errorf("%w: kv eviction %q", ErrUnknownReference, kv.Eviction)
			}
		}
	}
	return nil
}

// --- Derived cluster topology -------------------------------------------

// PoolRange is one pool's expansion onto the replica-ID space: pool i
// covers [Start, End) directly after pool i-1's built capacity.
type PoolRange struct {
	Name    string
	Start   int // first replica ID (inclusive)
	End     int // one past the last replica ID
	Desired int // active replicas the controller converges to
	Role    cluster.Role
	Variant string
}

// PoolRanges expands the pools onto contiguous replica-ID ranges, in
// manifest order.
func (m *Manifest) PoolRanges() []PoolRange {
	out := make([]PoolRange, 0, len(m.Pools))
	next := 0
	for _, p := range m.Pools {
		role, _ := cluster.ParseRole(p.Role)
		out = append(out, PoolRange{
			Name:    p.Name,
			Start:   next,
			End:     next + p.BuiltMax(),
			Desired: p.Count,
			Role:    role,
			Variant: p.Variant,
		})
		next += p.BuiltMax()
	}
	return out
}

// TotalBuilt is the replica count the engine constructs: the sum of every
// pool's built capacity.
func (m *Manifest) TotalBuilt() int {
	total := 0
	for _, p := range m.Pools {
		total += p.BuiltMax()
	}
	return total
}

// InitialActive is the sum of desired counts — the replicas active at
// startup (the controller aligns which ones per pool).
func (m *Manifest) InitialActive() int {
	total := 0
	for _, p := range m.Pools {
		total += p.Count
	}
	return total
}

// ReplicaVariants converts the pools into the cluster's per-replica
// variant assignment (one entry per pool, covering its built capacity).
func (m *Manifest) ReplicaVariants() []cluster.ReplicaVariant {
	byName := make(map[string]Variant, len(m.Variants))
	for _, v := range m.Variants {
		byName[v.Name] = v
	}
	out := make([]cluster.ReplicaVariant, 0, len(m.Pools))
	for _, p := range m.Pools {
		rv := cluster.ReplicaVariant{Count: p.BuiltMax()}
		if v, ok := byName[p.Variant]; ok {
			rv.Name, rv.CostRate, rv.Slowdown = v.Name, v.Cost, v.Slowdown
		}
		out = append(out, rv)
	}
	return out
}

// RoleSpecs converts the pools into the cluster's per-replica role
// assignment.
func (m *Manifest) RoleSpecs() []cluster.RoleSpec {
	out := make([]cluster.RoleSpec, 0, len(m.Pools))
	anyRole := false
	for _, p := range m.Pools {
		role, _ := cluster.ParseRole(p.Role)
		if role != cluster.RoleUnified {
			anyRole = true
		}
		out = append(out, cluster.RoleSpec{Role: role, Count: p.BuiltMax()})
	}
	if !anyRole {
		return nil
	}
	return out
}

// ServiceClasses converts the class declarations to the api form.
func (m *Manifest) ServiceClasses() []api.ServiceClass {
	out := make([]api.ServiceClass, 0, len(m.Classes))
	for _, cl := range m.Classes {
		out = append(out, api.ServiceClass{
			Name:            cl.Name,
			TTFTTarget:      cl.TTFT.Std(),
			ITLTarget:       cl.ITL.Std(),
			MinTokensPerSec: cl.TPS,
			Priority:        cl.Priority,
			Degradable:      cl.Degradable,
		})
	}
	return out
}

// PlacementPolicy resolves the placement keyword (round-robin when empty;
// Validate has already rejected unknown names).
func (m *Manifest) PlacementPolicy() cluster.PlacementPolicy {
	if m.Placement == "" {
		return cluster.PlaceRoundRobin
	}
	pol, _ := cluster.ParsePlacement(m.Placement)
	return pol
}

// ScalerConfig converts the scaler declaration (zero value when absent).
func (m *Manifest) ScalerConfig() cluster.ScalerConfig {
	s := m.Scaler
	if s == nil {
		return cluster.ScalerConfig{}
	}
	max := s.Max
	if max == 0 {
		max = m.TotalBuilt()
	}
	return cluster.ScalerConfig{
		Enabled: true, Min: s.Min, Max: max,
		Interval: s.Interval.Std(),
		SatHigh:  s.SatHigh, SatLow: s.SatLow,
		AttainTarget: s.AttainTarget,
		ScaleToZero:  s.ScaleToZero,
		IdleAfter:    s.IdleAfter.Std(),
	}
}

// EvictionPolicy resolves the KV eviction keyword (LRU when absent).
func (m *Manifest) EvictionPolicy() core.EvictionPolicy {
	if m.KV == nil || m.KV.Eviction == "" {
		return core.EvictLRU
	}
	ev, _ := core.ParseEviction(m.KV.Eviction)
	return ev
}

// Clone deep-copies the manifest (Apply snapshots desired state).
func (m *Manifest) Clone() *Manifest {
	cp := *m
	cp.Models = append([]string(nil), m.Models...)
	cp.Variants = append([]Variant(nil), m.Variants...)
	cp.Pools = append([]Pool(nil), m.Pools...)
	cp.Classes = append([]Class(nil), m.Classes...)
	cp.Programs = append([]Pin(nil), m.Programs...)
	if m.Scaler != nil {
		s := *m.Scaler
		cp.Scaler = &s
	}
	if m.KV != nil {
		kv := *m.KV
		cp.KV = &kv
	}
	if m.Reconcile.Prewarm != nil {
		b := *m.Reconcile.Prewarm
		cp.Reconcile.Prewarm = &b
	}
	return &cp
}

// CheckCompatible reports whether next can replace m by hot reload.
// Mutable: pool desired counts, program pins, placement, the upgrade
// tuning (drain deadline, batch, prewarm). Everything shaping built
// topology — pool names/variants/roles/capacity, variant and class
// declarations, the scaler, KV geometry, the seed, the model list — and
// the reconcile interval, which the cluster tick arms at start, are
// immutable and fail typed ErrImmutable.
func (m *Manifest) CheckCompatible(next *Manifest) error {
	if next.Seed != m.Seed {
		return fmt.Errorf("%w: seed (restart to change)", ErrImmutable)
	}
	if !equalStrings(next.Models, m.Models) {
		return fmt.Errorf("%w: models (restart to change)", ErrImmutable)
	}
	if len(next.Pools) != len(m.Pools) {
		return fmt.Errorf("%w: pool set (restart to add or remove pools)", ErrImmutable)
	}
	for i, p := range m.Pools {
		np := next.Pools[i]
		if np.Name != p.Name || np.Variant != p.Variant || np.Role != p.Role || np.BuiltMax() != p.BuiltMax() {
			return fmt.Errorf("%w: pool %q topology (only count may change live)", ErrImmutable, p.Name)
		}
	}
	if len(next.Variants) != len(m.Variants) {
		return fmt.Errorf("%w: variant declarations", ErrImmutable)
	}
	for i, v := range m.Variants {
		if next.Variants[i] != v {
			return fmt.Errorf("%w: variant %q", ErrImmutable, v.Name)
		}
	}
	if len(next.Classes) != len(m.Classes) {
		return fmt.Errorf("%w: service-class declarations", ErrImmutable)
	}
	for i, cl := range m.Classes {
		if next.Classes[i] != cl {
			return fmt.Errorf("%w: service class %q", ErrImmutable, cl.Name)
		}
	}
	if (m.Scaler == nil) != (next.Scaler == nil) || (m.Scaler != nil && *m.Scaler != *next.Scaler) {
		return fmt.Errorf("%w: scaler configuration", ErrImmutable)
	}
	if (m.KV == nil) != (next.KV == nil) || (m.KV != nil && *m.KV != *next.KV) {
		return fmt.Errorf("%w: kv configuration", ErrImmutable)
	}
	if next.Reconcile.EffectiveInterval() != m.Reconcile.EffectiveInterval() {
		return fmt.Errorf("%w: reconcile interval (restart to change)", ErrImmutable)
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
