package ilm

import (
	"errors"
	"testing"

	"pie/api"
	"pie/inferlet"
)

// TestPinResolution: a pin overrides the latest-wins rule for bare names
// without touching explicit version refs.
func TestPinResolution(t *testing.T) {
	m := newTestILM()
	for _, v := range []string{"1.0.0", "2.0.0"} {
		if err := m.Register(prog("app", v, inferlet.Manifest{})); err != nil {
			t.Fatalf("register %s: %v", v, err)
		}
	}
	if e, _ := m.resolve("app"); e.version != "2.0.0" {
		t.Fatalf("unpinned bare name = %s, want latest 2.0.0", e.version)
	}
	// "1.0" canonicalizes on the way in.
	if err := m.SetPin("app", "1.0"); err != nil {
		t.Fatalf("SetPin: %v", err)
	}
	if v, ok := m.Pinned("app"); !ok || v != "1.0.0" {
		t.Fatalf("Pinned = %q, %v", v, ok)
	}
	if e, _ := m.resolve("app"); e.version != "1.0.0" {
		t.Fatalf("pinned bare name = %s, want 1.0.0", e.version)
	}
	if e, _ := m.resolve("app@2.0.0"); e.version != "2.0.0" {
		t.Fatalf("explicit ref = %s: the pin must not capture it", e.version)
	}
	m.ClearPin("app")
	if e, _ := m.resolve("app"); e.version != "2.0.0" {
		t.Fatalf("after ClearPin = %s, want latest again", e.version)
	}
}

// TestSetPinErrors: pins are typed-validated against the registry.
func TestSetPinErrors(t *testing.T) {
	m := newTestILM()
	if err := m.Register(prog("app", "1.0.0", inferlet.Manifest{})); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPin("app", "not-semver"); !errors.Is(err, api.ErrNoSuchProgram) {
		t.Fatalf("bad version: %v", err)
	}
	if err := m.SetPin("app", "3.0.0"); !errors.Is(err, api.ErrNoSuchProgram) {
		t.Fatalf("unregistered version: %v", err)
	}
	if err := m.SetPin("ghost", "1.0.0"); !errors.Is(err, api.ErrNoSuchProgram) {
		t.Fatalf("unknown program: %v", err)
	}
	if _, ok := m.Pinned("app"); ok {
		t.Fatal("failed SetPin left a pin behind")
	}
}

// TestArtifactFor resolves pins and refs to cache keys for prewarming.
func TestArtifactFor(t *testing.T) {
	m := newTestILM()
	if err := m.Register(prog("app", "1.2.0", inferlet.Manifest{})); err != nil {
		t.Fatal(err)
	}
	key, size, err := m.ArtifactFor("app@1.2.0")
	if err != nil || key == "" || size != 1<<10 {
		t.Fatalf("ArtifactFor = %q, %d, %v", key, size, err)
	}
	if _, _, err := m.ArtifactFor("app@9.9.9"); !errors.Is(err, api.ErrNoSuchProgram) {
		t.Fatalf("unknown ref: %v", err)
	}
}

// TestRunningHandlesEmpty: no live instances, no handles — and lookups on
// unregistered programs stay typed.
func TestRunningHandlesEmpty(t *testing.T) {
	m := newTestILM()
	if hs := m.RunningHandles(nil, "ghost"); len(hs) != 0 {
		t.Fatalf("RunningHandles on empty registry = %v", hs)
	}
}
