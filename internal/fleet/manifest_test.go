package fleet

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"pie/internal/cluster"
	"pie/internal/ilm"
)

// validDoc is a full-featured manifest exercising every section.
const validDoc = `{
  "schema": 1,
  "seed": 7,
  "models": ["llama-1b", "llama-3b"],
  "placement": "least-loaded",
  "variants": [
    {"name": "l4", "cost": 1.0},
    {"name": "l4e", "cost": 0.6, "slowdown": 1.35}
  ],
  "pools": [
    {"name": "prefill", "variant": "l4", "role": "prefill", "count": 2, "max": 4},
    {"name": "decode", "variant": "l4e", "role": "decode", "count": 3}
  ],
  "classes": [
    {"name": "interactive", "ttft": "120ms", "itl": "60ms", "priority": 10},
    {"name": "batch", "tps": 40, "degradable": true}
  ],
  "programs": [
    {"name": "text_completion", "version": "1.2", "class": "interactive"}
  ],
  "kv": {"host_ratio": 2.0, "eviction": "priority"},
  "reconcile": {"interval": "5ms", "drain_deadline": "80ms", "upgrade_batch": 3}
}`

func TestParseValidManifest(t *testing.T) {
	m, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.Seed != 7 || m.Placement != "least-loaded" {
		t.Fatalf("header fields: %+v", m)
	}
	if got := m.TotalBuilt(); got != 7 {
		t.Fatalf("TotalBuilt = %d, want 7 (4 built prefill + 3 decode)", got)
	}
	if got := m.InitialActive(); got != 5 {
		t.Fatalf("InitialActive = %d, want 5", got)
	}
	prs := m.PoolRanges()
	if len(prs) != 2 || prs[0] != (PoolRange{Name: "prefill", Start: 0, End: 4, Desired: 2, Role: cluster.RolePrefill, Variant: "l4"}) {
		t.Fatalf("PoolRanges = %+v", prs)
	}
	if prs[1].Start != 4 || prs[1].End != 7 || prs[1].Desired != 3 {
		t.Fatalf("second range = %+v", prs[1])
	}
	if m.PlacementPolicy() != cluster.PlaceLeastLoaded {
		t.Fatalf("PlacementPolicy = %v", m.PlacementPolicy())
	}
	if rs := m.RoleSpecs(); len(rs) != 2 {
		t.Fatalf("RoleSpecs = %+v", rs)
	}
	if vs := m.ReplicaVariants(); len(vs) != 2 || vs[0].Count != 4 || vs[1].Count != 3 {
		t.Fatalf("ReplicaVariants = %+v", vs)
	}
	cs := m.ServiceClasses()
	if len(cs) != 2 || cs[0].TTFTTarget != 120*time.Millisecond || !cs[1].Degradable {
		t.Fatalf("ServiceClasses = %+v", cs)
	}
	if m.EvictionPolicy().String() == "lru" {
		t.Fatalf("EvictionPolicy kept the default over %q", m.KV.Eviction)
	}
	rc := m.Reconcile
	if rc.EffectiveInterval() != 5*time.Millisecond ||
		rc.EffectiveDrainDeadline() != 80*time.Millisecond ||
		rc.EffectiveBatch() != 3 || !rc.EffectivePrewarm() {
		t.Fatalf("reconcile effectives: %+v", rc)
	}
	if ref := m.Programs[0].Ref(); ref != "text_completion@1.2" {
		t.Fatalf("Ref = %q", ref)
	}
}

func TestParseRoundTrip(t *testing.T) {
	m, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	m2, err := Parse(blob)
	if err != nil {
		t.Fatalf("re-Parse marshaled manifest: %v\n%s", err, blob)
	}
	blob2, _ := json.Marshal(m2)
	if string(blob) != string(blob2) {
		t.Fatalf("round trip not stable:\n%s\n%s", blob, blob2)
	}
}

// TestParseErrors maps every malformed-document class to its typed error.
func TestParseErrors(t *testing.T) {
	pool := `"pools": [{"name": "main", "count": 2}]`
	cases := []struct {
		name string
		doc  string
		want error
	}{
		{"malformed json", `{"schema": 1,`, ErrSyntax},
		{"unknown field", `{"schema": 1, "bogus": true, ` + pool + `}`, ErrSyntax},
		{"trailing data", `{"schema": 1, ` + pool + `} {}`, ErrSyntax},
		{"numeric duration", `{"schema": 1, ` + pool + `, "reconcile": {"interval": 5}}`, ErrSyntax},
		{"bad duration string", `{"schema": 1, ` + pool + `, "reconcile": {"interval": "fast"}}`, ErrSyntax},
		{"wrong schema", `{"schema": 2, ` + pool + `}`, ErrBadVersion},
		{"missing schema", `{` + pool + `}`, ErrBadVersion},
		{"unknown model", `{"schema": 1, "models": ["gpt-5"], ` + pool + `}`, ErrUnknownReference},
		{"unknown placement", `{"schema": 1, "placement": "warmest", ` + pool + `}`, ErrUnknownReference},
		{"empty variant name", `{"schema": 1, "variants": [{"name": ""}], ` + pool + `}`, ErrSyntax},
		{"duplicate variant", `{"schema": 1, "variants": [{"name": "a"}, {"name": "a"}], ` + pool + `}`, ErrSyntax},
		{"negative variant cost", `{"schema": 1, "variants": [{"name": "a", "cost": -1}], ` + pool + `}`, ErrSyntax},
		{"sub-unit slowdown", `{"schema": 1, "variants": [{"name": "a", "slowdown": 0.5}], ` + pool + `}`, ErrSyntax},
		{"no pools", `{"schema": 1}`, ErrAmbiguousPool},
		{"empty pool name", `{"schema": 1, "pools": [{"name": "", "count": 1}]}`, ErrAmbiguousPool},
		{"duplicate pool", `{"schema": 1, "pools": [{"name": "a", "count": 1}, {"name": "a", "count": 1}]}`, ErrAmbiguousPool},
		{"negative count", `{"schema": 1, "pools": [{"name": "a", "count": -1}]}`, ErrAmbiguousPool},
		{"negative max", `{"schema": 1, "pools": [{"name": "a", "count": 1, "max": -2}]}`, ErrAmbiguousPool},
		{"builds nothing", `{"schema": 1, "pools": [{"name": "a", "count": 0}]}`, ErrAmbiguousPool},
		{"count over max", `{"schema": 1, "pools": [{"name": "a", "count": 5, "max": 2}]}`, ErrAmbiguousPool},
		{"undeclared variant ref", `{"schema": 1, "pools": [{"name": "a", "variant": "h100", "count": 1}]}`, ErrUnknownReference},
		{"unknown role", `{"schema": 1, "pools": [{"name": "a", "role": "verify", "count": 1}]}`, ErrUnknownReference},
		{"empty class name", `{"schema": 1, ` + pool + `, "classes": [{"name": ""}]}`, ErrSyntax},
		{"duplicate class", `{"schema": 1, ` + pool + `, "classes": [{"name": "c"}, {"name": "c"}]}`, ErrSyntax},
		{"negative latency target", `{"schema": 1, ` + pool + `, "classes": [{"name": "c", "ttft": "-1ms"}]}`, ErrSyntax},
		{"negative scaler bounds", `{"schema": 1, ` + pool + `, "scaler": {"min": -1}}`, ErrSyntax},
		{"scaler max over built", `{"schema": 1, ` + pool + `, "scaler": {"max": 9}}`, ErrSyntax},
		{"scaler min over max", `{"schema": 1, ` + pool + `, "scaler": {"min": 2, "max": 1}}`, ErrSyntax},
		{"empty pin name", `{"schema": 1, ` + pool + `, "programs": [{"name": "", "version": "1.0.0"}]}`, ErrSyntax},
		{"duplicate pin", `{"schema": 1, ` + pool + `, "programs": [{"name": "p", "version": "1.0.0"}, {"name": "p", "version": "2.0.0"}]}`, ErrSyntax},
		{"non-semver pin", `{"schema": 1, ` + pool + `, "programs": [{"name": "p", "version": "latest"}]}`, ErrBadVersion},
		{"four-part version", `{"schema": 1, ` + pool + `, "programs": [{"name": "p", "version": "1.2.3.4"}]}`, ErrBadVersion},
		{"undeclared pin class", `{"schema": 1, ` + pool + `, "programs": [{"name": "p", "version": "1.0.0", "class": "gold"}]}`, ErrUnknownReference},
		{"negative host ratio", `{"schema": 1, ` + pool + `, "kv": {"host_ratio": -1}}`, ErrSyntax},
		{"negative pages override", `{"schema": 1, ` + pool + `, "kv": {"pages_override": -1}}`, ErrSyntax},
		{"unknown eviction", `{"schema": 1, ` + pool + `, "kv": {"eviction": "random"}}`, ErrUnknownReference},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %s: %+v", tc.name, m)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Parse(%s) = %v, want %v", tc.name, err, tc.want)
			}
		})
	}
}

// TestCanonicalVersion: a program pin's version uses ilm's grammar — 1-3
// numeric components, no leading zeros — and reconciliation pins its
// canonical three-component form; Validate wraps every other string in
// ErrBadVersion.
func TestCanonicalVersion(t *testing.T) {
	pin := func(v string) []byte {
		return []byte(`{"schema": 1, "pools": [{"name": "main", "count": 2}], "programs": [{"name": "p", "version": "` + v + `"}]}`)
	}
	good := map[string]string{
		"1":      "1.0.0",
		"1.2":    "1.2.0",
		"1.2.3":  "1.2.3",
		"0.9.10": "0.9.10",
	}
	for in, want := range good {
		if _, err := Parse(pin(in)); err != nil {
			t.Fatalf("pin version %q rejected: %v", in, err)
		}
		if got, err := ilm.CanonicalVersion(in); err != nil || got != want {
			t.Fatalf("CanonicalVersion(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "v1", "1.2.3.4", "1..2", "1.-2", "01.2", "latest", "1.x"} {
		if _, err := Parse(pin(bad)); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("pin version %q: Parse = %v, want ErrBadVersion", bad, err)
		}
	}
}

func TestReconcileEffectiveDefaults(t *testing.T) {
	var rc Reconcile
	if rc.EffectiveInterval() != 10*time.Millisecond {
		t.Fatalf("default interval = %v", rc.EffectiveInterval())
	}
	if rc.EffectiveDrainDeadline() != 100*time.Millisecond {
		t.Fatalf("default drain deadline = %v", rc.EffectiveDrainDeadline())
	}
	if rc.EffectiveBatch() != 2 {
		t.Fatalf("default batch = %d", rc.EffectiveBatch())
	}
	if !rc.EffectivePrewarm() {
		t.Fatal("default prewarm must be on")
	}
	// Negatives are the naive-baseline escape hatches: no grace, one
	// unbounded batch.
	neg := Reconcile{DrainDeadline: Duration(-time.Millisecond), UpgradeBatch: -1}
	if neg.EffectiveDrainDeadline() != 0 {
		t.Fatalf("negative drain deadline = %v, want 0", neg.EffectiveDrainDeadline())
	}
	if neg.EffectiveBatch() < 1<<40 {
		t.Fatalf("negative batch = %d, want unbounded", neg.EffectiveBatch())
	}
	off := false
	if (Reconcile{Prewarm: &off}).EffectivePrewarm() {
		t.Fatal("explicit prewarm=false ignored")
	}
}

func TestCheckCompatible(t *testing.T) {
	base, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// The mutable surface: counts, pins, placement, reconcile tuning.
	ok := base.Clone()
	ok.Pools[0].Count = 4
	ok.Programs[0].Version = "2.0.0"
	ok.Placement = "rr"
	ok.Reconcile.UpgradeBatch = 1
	if err := base.CheckCompatible(ok); err != nil {
		t.Fatalf("mutable changes rejected: %v", err)
	}
	// Everything else needs a restart.
	breakers := map[string]func(*Manifest){
		"seed":         func(m *Manifest) { m.Seed = 99 },
		"models":       func(m *Manifest) { m.Models = append(m.Models, "llama-8b") },
		"pool removed": func(m *Manifest) { m.Pools = m.Pools[:1] },
		"pool renamed": func(m *Manifest) { m.Pools[0].Name = "other" },
		"pool variant": func(m *Manifest) { m.Pools[0].Variant = "l4e" },
		"pool role":    func(m *Manifest) { m.Pools[0].Role = "decode" },
		"pool max":     func(m *Manifest) { m.Pools[0].Max = 8 },
		"variant decl": func(m *Manifest) { m.Variants[1].Cost = 0.7 },
		"class decl":   func(m *Manifest) { m.Classes[0].Priority = 5 },
		"kv":           func(m *Manifest) { m.KV.HostRatio = 3 },
		"scaler":       func(m *Manifest) { m.Scaler = &Scaler{Min: 1} },
	}
	for name, mutate := range breakers {
		next := base.Clone()
		mutate(next)
		if err := base.CheckCompatible(next); !errors.Is(err, ErrImmutable) {
			t.Fatalf("%s change: err = %v, want ErrImmutable", name, err)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	m, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cp := m.Clone()
	cp.Pools[0].Count = 99
	cp.Programs[0].Version = "9.9.9"
	cp.Variants[0].Cost = 42
	cp.KV.HostRatio = 8
	cp.Models[0] = "other"
	if m.Pools[0].Count == 99 || m.Programs[0].Version == "9.9.9" ||
		m.Variants[0].Cost == 42 || m.KV.HostRatio == 8 || m.Models[0] == "other" {
		t.Fatalf("Clone shares memory with the original: %+v", m)
	}
}

func TestScalerConfigDefaultsMaxToBuilt(t *testing.T) {
	m, err := Parse([]byte(`{"schema": 1, "pools": [{"name": "a", "count": 2, "max": 5}], "scaler": {"min": 1}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sc := m.ScalerConfig()
	if !sc.Enabled || sc.Max != 5 {
		t.Fatalf("ScalerConfig = %+v, want enabled with max 5", sc)
	}
	var none Manifest
	if none.ScalerConfig().Enabled {
		t.Fatal("nil scaler must disable the config")
	}
}

func TestDurationMarshal(t *testing.T) {
	blob, err := json.Marshal(Duration(250 * time.Millisecond))
	if err != nil || string(blob) != `"250ms"` {
		t.Fatalf("Marshal = %s, %v", blob, err)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"1.5s"`), &d); err != nil || d.Std() != 1500*time.Millisecond {
		t.Fatalf("Unmarshal = %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`250`), &d); !errors.Is(err, ErrSyntax) {
		t.Fatalf("numeric duration err = %v, want ErrSyntax", err)
	}
}
