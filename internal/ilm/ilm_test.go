package ilm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pie/api"
	"pie/inferlet"
	"pie/internal/core"
	"pie/internal/sim"
)

// testCatalog mirrors the standard catalog's shape: one full-trait model
// and one text-only model lacking fused/image.
func testCatalog() []api.ModelInfo {
	return []api.ModelInfo{
		{ID: "llama-1b", Params: "1B", Traits: []api.Trait{
			api.TraitCore, api.TraitAllocate, api.TraitForward, api.TraitInputText,
			api.TraitTokenize, api.TraitOutputText, api.TraitFused,
		}},
		{ID: "tiny-text", Params: "1B", Traits: []api.Trait{
			api.TraitCore, api.TraitTokenize,
		}},
	}
}

// fakePlacer stands in for the cluster layer and declines everything:
// no placement, full-quality admission, no faults, no handoff. Tests embed
// it to override one answer.
type fakePlacer struct{}

func (fakePlacer) Place(string, string, []string, uint64) (*core.Controller, error) { return nil, nil }
func (fakePlacer) AdmitLaunch(string, int) (int, error)                             { return 0, nil }
func (fakePlacer) LaunchFault() error                                               { return nil }
func (fakePlacer) MaybeHandoff(*core.Controller, *core.Instance) (*core.Controller, bool) {
	return nil, false
}

func newTestILM() *ILM {
	return New(sim.NewClock(), fakePlacer{}, nil, testCatalog())
}

func prog(name, version string, m inferlet.Manifest) inferlet.Program {
	m.Version = version
	return inferlet.Program{
		Name: name, BinarySize: 1 << 10, Manifest: m,
		Run: func(inferlet.Session) error { return nil },
	}
}

func TestVersionedRegistryLatestWins(t *testing.T) {
	m := newTestILM()
	for _, v := range []string{"1.0.0", "1.2.0", "1.10.0", "0.9.9"} {
		if err := m.Register(prog("app", v, inferlet.Manifest{})); err != nil {
			t.Fatalf("register %s: %v", v, err)
		}
	}
	// Numeric, not lexicographic: 1.10.0 > 1.2.0.
	e, err := m.resolve("app")
	if err != nil || e.version != "1.10.0" {
		t.Fatalf("latest resolve = %v/%v, want 1.10.0", e, err)
	}
	// Exact pins resolve; unknown versions and names are typed.
	if e, err := m.resolve("app@1.2.0"); err != nil || e.version != "1.2.0" {
		t.Fatalf("pinned resolve = %v/%v", e, err)
	}
	if _, err := m.resolve("app@2.0.0"); !errors.Is(err, api.ErrNoSuchProgram) {
		t.Fatalf("unknown version: %v, want ErrNoSuchProgram", err)
	}
	if _, err := m.resolve("ghost"); !errors.Is(err, api.ErrNoSuchProgram) {
		t.Fatalf("unknown name: %v, want ErrNoSuchProgram", err)
	}
	// Duplicate name@version is rejected; a bare name defaults to 1.0.0,
	// which also already exists.
	if err := m.Register(prog("app", "1.2.0", inferlet.Manifest{})); err == nil {
		t.Fatal("duplicate name@version registered")
	}
	if err := m.Register(prog("app", "", inferlet.Manifest{})); err == nil {
		t.Fatal("default-version duplicate registered")
	}

	infos := m.ProgramInfos()
	if len(infos) != 4 {
		t.Fatalf("ProgramInfos = %d entries, want 4", len(infos))
	}
	latest := 0
	for i, p := range infos {
		if p.Name != "app" || p.BinarySize != 1<<10 {
			t.Fatalf("info %d = %+v", i, p)
		}
		if p.Latest {
			latest++
			if p.Version != "1.10.0" {
				t.Fatalf("latest flag on %s", p.Version)
			}
		}
	}
	if latest != 1 {
		t.Fatalf("%d entries flagged latest, want 1", latest)
	}
	// Version order within the name: ascending.
	if infos[0].Version != "0.9.9" || infos[3].Version != "1.10.0" {
		t.Fatalf("version order: %s .. %s", infos[0].Version, infos[3].Version)
	}
}

func TestManifestValidationAtRegister(t *testing.T) {
	m := newTestILM()
	cases := []struct {
		name     string
		manifest inferlet.Manifest
		ok       bool
	}{
		{"zero", inferlet.Manifest{}, true},
		{"model-ok", inferlet.Manifest{Models: []api.ModelID{"llama-1b"}}, true},
		{"model-missing", inferlet.Manifest{Models: []api.ModelID{"gpt-99"}}, false},
		{"trait-ok", inferlet.Manifest{Traits: []api.Trait{api.TraitFused}}, true},
		{"trait-on-model-ok", inferlet.Manifest{
			Models: []api.ModelID{"llama-1b"}, Traits: []api.Trait{api.TraitFused}}, true},
		{"trait-on-model-bad", inferlet.Manifest{
			Models: []api.ModelID{"tiny-text"}, Traits: []api.Trait{api.TraitFused}}, false},
		{"trait-nowhere", inferlet.Manifest{Traits: []api.Trait{api.TraitInputImage}}, false},
		{"bad-version", inferlet.Manifest{Version: "1.x"}, false},
		{"negative-limit", inferlet.Manifest{Limits: inferlet.Limits{MaxKvPages: -1}}, false},
	}
	for _, tc := range cases {
		err := m.Register(prog("m-"+tc.name, tc.manifest.Version, tc.manifest))
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: registered an unsatisfiable manifest", tc.name)
			} else if !errors.Is(err, api.ErrUnsatisfiedManifest) {
				t.Errorf("%s: error %v not typed ErrUnsatisfiedManifest", tc.name, err)
			}
		}
	}
	// Trait satisfied through the supertrait closure: tiny-text declares
	// only tokenize, whose closure covers input_text/forward/allocate.
	err := m.Register(prog("closure", "", inferlet.Manifest{
		Models: []api.ModelID{"tiny-text"}, Traits: []api.Trait{api.TraitAllocate}}))
	if err != nil {
		t.Fatalf("closure-satisfied manifest rejected: %v", err)
	}
}

func TestVersionParsing(t *testing.T) {
	good := map[string][3]int{
		"1":      {1, 0, 0},
		"1.2":    {1, 2, 0},
		"1.2.3":  {1, 2, 3},
		"0.0.1":  {0, 0, 1},
		"0.9.10": {0, 9, 10},
		"10.0.0": {10, 0, 0},
	}
	for in, want := range good {
		got, err := parseVersion(in)
		if err != nil || got != want {
			t.Errorf("parseVersion(%q) = %v, %v; want %v", in, got, err, want)
		}
		if c, err := CanonicalVersion(in); err != nil || c != fmt.Sprintf("%d.%d.%d", want[0], want[1], want[2]) {
			t.Errorf("CanonicalVersion(%q) = %q, %v; want %v", in, c, err, want)
		}
	}
	for _, bad := range []string{"", "a", "v1", "latest", "1.2.3.4", "1..2", "1.-2", "01.2", "1.2.x", "1.x"} {
		if _, err := parseVersion(bad); err == nil {
			t.Errorf("parseVersion(%q) accepted", bad)
		}
		if c, err := CanonicalVersion(bad); err == nil {
			t.Errorf("CanonicalVersion(%q) = %q, want an error", bad, c)
		}
	}
	if !versionLess([3]int{1, 2, 0}, [3]int{1, 10, 0}) || versionLess([3]int{2, 0, 0}, [3]int{1, 9, 9}) {
		t.Fatal("versionLess ordering wrong")
	}
}

func TestEffectiveDeadline(t *testing.T) {
	const s, m = 2 * time.Second, 5 * time.Second
	cases := []struct{ spec, manifest, want time.Duration }{
		{0, 0, 0}, {s, 0, s}, {0, m, m}, {s, m, s}, {m, s, s},
	}
	for _, tc := range cases {
		if got := effectiveDeadline(tc.spec, tc.manifest); got != tc.want {
			t.Errorf("effectiveDeadline(%v, %v) = %v, want %v", tc.spec, tc.manifest, got, tc.want)
		}
	}
}

func TestVersionCanonicalization(t *testing.T) {
	m := newTestILM()
	if err := m.Register(prog("app", "1.0", inferlet.Manifest{})); err != nil {
		t.Fatalf("register 1.0: %v", err)
	}
	// "1.0" and "1.0.0" are the same artifact: the duplicate check keys
	// the canonical form.
	if err := m.Register(prog("app", "1.0.0", inferlet.Manifest{})); err == nil {
		t.Fatal("registered 1.0.0 alongside 1.0 (same semantic version)")
	}
	// Every spelling of the version resolves the one entry.
	for _, ref := range []string{"app", "app@1", "app@1.0", "app@1.0.0"} {
		e, err := m.resolve(ref)
		if err != nil || e.version != "1.0.0" {
			t.Fatalf("resolve(%q) = %v, %v; want 1.0.0", ref, e, err)
		}
	}
	// Malformed version references are typed, not panics.
	if _, err := m.resolve("app@1.x"); !errors.Is(err, api.ErrNoSuchProgram) {
		t.Fatalf("resolve bad version = %v, want ErrNoSuchProgram", err)
	}
	if got := m.ProgramInfos(); len(got) != 1 || got[0].Version != "1.0.0" {
		t.Fatalf("ProgramInfos = %+v, want one canonical 1.0.0 entry", got)
	}
}

// TestLaunchAdmissionIsASerialServer: launches made in one instant are
// admitted in order, dispatchWarm apart, and admission keeps no process:
// none is parked before the first launch, between launches or after them.
func TestLaunchAdmissionIsASerialServer(t *testing.T) {
	clock := sim.NewClock()
	m := oneReplicaILM(clock)
	if err := m.Register(prog("noop", "", inferlet.Manifest{})); err != nil {
		t.Fatal(err)
	}
	parked := func(when string) {
		if _, n, _, _ := clock.Stats(); n != 0 {
			t.Errorf("%d processes parked %s", n, when)
		}
	}
	const herd = 4
	var ids []uint64
	var running []time.Duration
	clock.Go("driver", func() {
		parked("before the first launch")
		launch := func() {
			h := new(Handle)
			if err := m.Launch(h, LaunchSpec{Program: "noop"}); err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, h.ID)
			running = append(running, clock.Now())
			h.Wait()
		}
		launch() // cold: the herd below finds the artifact cached
		parked("between launches")
		g := sim.NewGroup(clock)
		for i := 0; i < herd; i++ {
			g.Go("launcher", launch)
		}
		g.Wait()
		parked("after the last launch")
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != herd+1 {
		t.Fatalf("%d launches ran, want %d", len(ids), herd+1)
	}
	for i := 2; i <= herd; i++ {
		if ids[i] != ids[i-1]+1 || running[i]-running[i-1] != dispatchWarm {
			t.Errorf("herd launch %d: handle %d running %v after the one before, want handle %d %v after",
				i, ids[i], running[i]-running[i-1], ids[i-1]+1, dispatchWarm)
		}
	}
}
