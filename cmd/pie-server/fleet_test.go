package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pie"
)

// testManifest is the boot document the fleet-surface tests run on.
const testManifest = `{
  "schema": 1,
  "seed": 7,
  "placement": "least-loaded",
  "pools": [{"name": "main", "count": 2, "max": 4}],
  "classes": [{"name": "interactive", "ttft": "250ms", "priority": 10}],
  "programs": [{"name": "text_completion", "version": "1.0.0", "class": "interactive"}],
  "kv": {"host_ratio": 2.0},
  "reconcile": {"interval": "2ms"}
}`

func writeManifest(t testing.TB, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBuildConfigManifest: the manifest is the only description of fleet
// shape, and the flags that remain are orthogonal to it — each applies the
// same way with or without -config.
func TestBuildConfigManifest(t *testing.T) {
	fs := func() *flag.FlagSet {
		f := flag.NewFlagSet("test", flag.ContinueOnError)
		f.SetOutput(io.Discard)
		return f
	}
	path := writeManifest(t, testManifest)

	opts, err := buildConfig(fs(), []string{"-config", path})
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.Cfg
	if cfg.Fleet == nil || cfg.Seed != 7 || cfg.Replicas != 2 {
		t.Fatalf("manifest boot: seed=%d replicas=%d fleet=%v", cfg.Seed, cfg.Replicas, cfg.Fleet)
	}
	if cfg.Placement != pie.PlaceLeastLoaded || cfg.HostKVRatio != 2.0 {
		t.Fatalf("manifest policies lost: placement=%v kv=%v", cfg.Placement, cfg.HostKVRatio)
	}
	if len(cfg.Classes) != 1 || cfg.Classes[0].Name != "interactive" {
		t.Fatalf("manifest classes lost: %+v", cfg.Classes)
	}

	// A manifest that names no seed boots at the same default as a server
	// without -config; the document itself is not rewritten.
	seedless := writeManifest(t, strings.Replace(testManifest, `"seed": 7,`, ``, 1))
	opts, err = buildConfig(fs(), []string{"-config", seedless, "-fault-rate", "0.1"})
	if err != nil || opts.Cfg.Seed != defaultSeed || opts.Cfg.Faults.Seed != defaultSeed || opts.Cfg.Fleet.Seed != 0 {
		t.Fatalf("seedless manifest: seed=%d fault seed=%d doc seed=%d err=%v",
			opts.Cfg.Seed, opts.Cfg.Faults.Seed, opts.Cfg.Fleet.Seed, err)
	}

	orthogonal := []struct {
		name string
		args []string
		ok   func(pie.Config) bool
	}{
		// Regression: -handoff-budget used to be dropped under -config.
		{"handoff-budget", []string{"-handoff-budget", "3"},
			func(c pie.Config) bool { return c.HandoffBudget == 3 }},
		{"artifact-cache", []string{"-artifact-cache", "4096"},
			func(c pie.Config) bool { return c.ArtifactCacheBytes == 4096 }},
		{"health", []string{"-health-interval", "5ms", "-hang-timeout", "80ms"},
			func(c pie.Config) bool {
				return c.Health == pie.HealthConfig{Enabled: true, Interval: 5 * time.Millisecond, HangTimeout: 80 * time.Millisecond}
			}},
		{"shed", []string{"-shed-watermark", "0.85", "-shed-queue", "6.5"},
			func(c pie.Config) bool {
				return c.Shed == pie.ShedConfig{Enabled: true, KVWatermark: 0.85, QueueDepth: 6.5}
			}},
		{"faults", []string{"-fault-plan", "crash:0@200ms", "-fault-rate", "0.01"},
			func(c pie.Config) bool {
				return len(c.Faults.Events) == 1 && c.Faults.CallFailRate == 0.01 && c.Faults.Seed == c.Seed
			}},
		{"fault-seed", []string{"-fault-rate", "0.01", "-fault-seed", "99"},
			func(c pie.Config) bool { return c.Faults.Seed == 99 }},
		{"retry", []string{"-retry-attempts", "4", "-retry-budget", "250ms"},
			func(c pie.Config) bool {
				return c.DefaultRetry.MaxAttempts == 4 && c.DefaultRetry.Budget == 250*time.Millisecond
			}},
	}
	for _, tc := range orthogonal {
		for _, base := range [][]string{nil, {"-config", path}} {
			opts, err := buildConfig(fs(), append(base, tc.args...))
			if err != nil || !tc.ok(opts.Cfg) {
				t.Errorf("%s with %v: cfg=%+v err=%v", tc.name, base, opts.Cfg, err)
			}
		}
	}

	// The fleet-shaped flags are gone: the flag package rejects them.
	for _, name := range []string{
		"seed", "replicas", "placement", "variants", "roles", "classes",
		"scaler-max", "scaler-min", "scale-to-zero", "autoscale-max", "autoscale-min",
		"host-kv-ratio", "kv-evict",
	} {
		_, err := buildConfig(fs(), []string{"-" + name, "1"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("-%s: err = %v, want an undefined-flag error", name, err)
		}
	}

	// Bad documents fail typed at build time.
	bad := writeManifest(t, `{"schema": 1, "pools": []}`)
	if _, err := buildConfig(fs(), []string{"-config", bad}); err == nil {
		t.Fatal("invalid manifest accepted")
	}
	if _, err := buildConfig(fs(), []string{"-config", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Fatal("missing manifest file accepted")
	}

	// -validate is carried through for main to act on.
	opts, err = buildConfig(fs(), []string{"-config", path, "-validate"})
	if err != nil || !opts.Validate || opts.ConfigPath != path {
		t.Fatalf("validate mode: %+v, %v", opts, err)
	}
}

// TestBuildConfigRejectsOutOfRange: a flag value outside its range fails
// naming the flag instead of turning into a default or switching the
// feature off; the edges of each range, zero included, still build.
func TestBuildConfigRejectsOutOfRange(t *testing.T) {
	build := func(args ...string) error {
		f := flag.NewFlagSet("test", flag.ContinueOnError)
		f.SetOutput(io.Discard)
		_, err := buildConfig(f, args)
		return err
	}
	for _, tc := range []struct {
		flag      string
		bad, good []string
	}{
		{"shed-watermark", []string{"1.5", "-0.1", "NaN"}, []string{"0", "0.9", "1"}},
		{"shed-queue", []string{"-1", "NaN"}, []string{"0", "6.5"}},
		{"handoff-budget", []string{"-1"}, []string{"0", "2"}},
		{"hang-timeout", []string{"-1ms"}, []string{"0", "80ms"}},
		{"health-interval", []string{"-5ms"}, []string{"0", "5ms"}},
		{"fault-rate", []string{"-0.01", "1.01", "NaN"}, []string{"0", "1"}},
		{"retry-budget", []string{"-250ms"}, []string{"0", "250ms"}},
		// Without -config one replica is built: replica 0 only.
		{"fault-plan", []string{"crash:1@1ms", "crash:9@1ms", "crash:0@1ms,hang:1@2ms", "slow:0@1ms*NaN", "slow:0@1ms*Inf", "slow:0@1ms*1e300"},
			[]string{"crash:0@1ms", "hang:0@1ms", "slow:0@1ms*1e6"}},
	} {
		for _, v := range tc.bad {
			if err := build("-"+tc.flag, v); err == nil || !strings.Contains(err.Error(), "-"+tc.flag+" ") {
				t.Errorf("-%s %s: err = %v, want an error naming the flag", tc.flag, v, err)
			}
		}
		for _, v := range tc.good {
			if err := build("-"+tc.flag, v); err != nil {
				t.Errorf("-%s %s: %v", tc.flag, v, err)
			}
		}
	}
}

// TestFleetEndpoint drives GET and POST /v1/fleet against a
// manifest-booted server: status reads, a hot count change, and the typed
// rejection ladder.
func TestFleetEndpoint(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	path := writeManifest(t, testManifest)
	opts, err := buildConfig(fs, []string{"-config", path})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startTestServer(t, opts.Cfg)

	var got struct {
		Fleet   map[string]interface{} `json:"fleet"`
		Desired map[string]interface{} `json:"desired"`
	}
	if resp := getJSON(t, ts.URL+"/v1/fleet", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/fleet: %d", resp.StatusCode)
	}
	if got.Fleet["generation"] != float64(0) || got.Desired["schema"] != float64(1) {
		t.Fatalf("fleet status = %+v", got)
	}

	post := func(doc string) (*http.Response, map[string]interface{}) {
		resp, err := http.Post(ts.URL+"/v1/fleet", "application/json", bytes.NewReader([]byte(doc)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var body map[string]interface{}
		_ = json.Unmarshal(raw, &body)
		return resp, body
	}

	// A count change applies and bumps the generation.
	grown := strings.Replace(testManifest, `"count": 2`, `"count": 4`, 1)
	resp, body := post(grown)
	if resp.StatusCode != http.StatusOK || body["status"] != "applied" {
		t.Fatalf("grow: %d %v", resp.StatusCode, body)
	}
	if fl, ok := body["fleet"].(map[string]interface{}); !ok || fl["generation"] != float64(1) {
		t.Fatalf("grow status: %v", body)
	}

	// The typed rejection ladder.
	cases := []struct {
		doc    string
		status int
		code   string
	}{
		{strings.Replace(testManifest, `"main"`, `"other"`, 1), http.StatusConflict, "immutable_field"},
		{strings.Replace(testManifest, `"1.0.0"`, `"latest"`, 1), http.StatusBadRequest, "bad_version"},
		{strings.Replace(testManifest, `"least-loaded"`, `"warmest"`, 1), http.StatusBadRequest, "unknown_reference"},
		{`{"schema": 1, "pools": []}`, http.StatusBadRequest, "ambiguous_pool"},
		{`{not json`, http.StatusBadRequest, "invalid_manifest"},
	}
	for _, tc := range cases {
		resp, body := post(tc.doc)
		errObj, _ := body["error"].(map[string]interface{})
		if resp.StatusCode != tc.status || errObj["code"] != tc.code {
			t.Fatalf("POST %q: %d %v, want %d %s", tc.doc[:24], resp.StatusCode, body, tc.status, tc.code)
		}
	}

	// Other methods are refused.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/fleet", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/fleet: %v %v", resp, err)
	}
}

// TestFleetEndpointNotManaged: a server booted without a manifest answers
// 404 typed.
func TestFleetEndpointNotManaged(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 1, Replicas: 1})
	resp := getJSON(t, ts.URL+"/v1/fleet", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/fleet without a manifest: %d, want 404", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/fleet", "application/json", strings.NewReader(testManifest))
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/fleet without a manifest: %v %v", resp, err)
	}
}

// TestReloadFleet is the SIGHUP path: re-read the boot manifest from disk
// and hot-apply it.
func TestReloadFleet(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	path := writeManifest(t, testManifest)
	opts, err := buildConfig(fs, []string{"-config", path})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := startTestServer(t, opts.Cfg)
	_ = ts

	// Rewrite the file with a new count, then reload.
	if err := os.WriteFile(path, []byte(strings.Replace(testManifest, `"count": 2`, `"count": 3`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.reloadFleet(path); err != nil {
		t.Fatalf("reloadFleet: %v", err)
	}
	var st struct {
		Fleet map[string]interface{} `json:"fleet"`
	}
	getJSON(t, ts.URL+"/v1/fleet", &st)
	if st.Fleet["generation"] != float64(1) {
		t.Fatalf("generation after reload = %v", st.Fleet["generation"])
	}

	// A broken file fails without touching the running fleet.
	if err := os.WriteFile(path, []byte(`{broken`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.reloadFleet(path); err == nil {
		t.Fatal("reloadFleet accepted a broken document")
	}
	getJSON(t, ts.URL+"/v1/fleet", &st)
	if st.Fleet["generation"] != float64(1) {
		t.Fatalf("failed reload changed generation: %v", st.Fleet["generation"])
	}
}

// TestExampleManifestsServe boots every committed example manifest the way
// main does and serves one launch on it: the fleets the removed flags used
// to describe must boot and serve from their documents, not merely parse.
func TestExampleManifestsServe(t *testing.T) {
	paths, err := filepath.Glob("../../examples/fleet/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example manifests found: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			opts, err := buildConfig(flag.NewFlagSet("test", flag.ContinueOnError), []string{"-config", path})
			if err != nil {
				t.Fatal(err)
			}
			_, ts := startTestServer(t, opts.Cfg)
			resp, err := postLaunch(ts, "text_completion", `{"prompt":"Hi","max_tokens":4}`)
			if err != nil {
				t.Fatal(err)
			}
			blob, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("launch: status %d: %s", resp.StatusCode, blob)
			}
			var waited struct {
				OutputTokens int    `json:"outputTokens"`
				Error        string `json:"error"`
			}
			getJSON(t, ts.URL+"/v1/wait?id=1", &waited)
			if waited.Error != "" || waited.OutputTokens != 4 {
				t.Fatalf("wait: %+v", waited)
			}
		})
	}
}
