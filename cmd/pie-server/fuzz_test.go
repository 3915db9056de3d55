package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// fuzzServer boots the server the fuzz targets share, from testManifest so
// /v1/fleet applies what parses, and returns its mux.
func fuzzServer(f *testing.F) http.Handler {
	path := writeManifest(f, testManifest)
	opts, err := buildConfig(flag.NewFlagSet("fuzz", flag.ContinueOnError), []string{"-config", path})
	if err != nil {
		f.Fatal(err)
	}
	return newServer(opts.Cfg).mux()
}

// call serves one request on mux and holds the reply to the error contract:
// every non-200 carries {"error":{"code","message"}}, and a 5xx names a
// failure class, never "internal". A handler that panics fails the target.
func call(t *testing.T, mux http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if rec.Code == http.StatusOK {
		return rec
	}
	var eb errBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("%s %s: status %d with body %.200q: want {\"error\":{\"code\",\"message\"}}", method, target, rec.Code, rec.Body.Bytes())
	}
	if rec.Code >= 500 && eb.Error.Code == "internal" {
		t.Fatalf("%s %s: untyped %d: %s", method, target, rec.Code, eb.Error.Message)
	}
	return rec
}

// FuzzLaunchBody feeds arbitrary bodies to POST /v1/launch, seeded from the
// bodies the tests send. A run that starts is aborted and evicted at once,
// so runs do not pile up across inputs.
func FuzzLaunchBody(f *testing.F) {
	for _, seed := range []string{
		`{"program":"text_completion","args":["{\"prompt\":\"Hello, \",\"max_tokens\":4,\"first_token_ack\":true}"]}`,
		`{"program":"text_completion","args":["{\"prompt\":\"Hi\",\"max_tokens\":2,\"ack\":true}"]}`,
		`{"program":"text_completion@1.0.0","args":["{\"prompt\":\"Hi\",\"max_tokens\":2}"],"client_tag":"tenant-7"}`,
		`{"program":"text_completion","args":["{\"prompt\":\"Hi\",\"max_tokens\":2}"],"class":"interactive"}`,
		`{"program":"text_completion","args":["{\"prompt\":\"Hi\",\"max_tokens\":2}"],"priority":-1}`,
		`{"program":"agent_react","args":["{\"steps\":1,\"think_tokens\":2,\"obs_tokens\":4,\"final_tokens\":2}"]}`,
		`{"program":"no_such_program","args":[""]}`,
		`{"program":"text_completion@9.9.9"}`,
		`{"program":"text_completion","deadline_ms":-5}`,
		`{"args":["x"]}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	mux := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := call(t, mux, http.MethodPost, "/v1/launch", body)
		if rec.Code != http.StatusOK {
			return
		}
		var launched struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &launched); err != nil {
			t.Fatalf("launch answered 200 with %q", rec.Body.Bytes())
		}
		call(t, mux, http.MethodPost, fmt.Sprintf("/v1/abort?id=%d", launched.ID), nil)
		call(t, mux, http.MethodPost, fmt.Sprintf("/v1/close?id=%d", launched.ID), nil)
	})
}

// FuzzFleetBody feeds arbitrary manifests to POST /v1/fleet on a
// manifest-booted server, seeded from the documents the tests send, and
// reads the status back after each.
func FuzzFleetBody(f *testing.F) {
	f.Add([]byte(testManifest))
	for _, seed := range []string{
		`{"schema": 1, "pools": []}`,
		`{"schema": 1}`,
		`{not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	for _, from := range [][2]string{
		{`"count": 2`, `"count": 4`},
		{`"main"`, `"other"`},
		{`"1.0.0"`, `"latest"`},
		{`"least-loaded"`, `"warmest"`},
	} {
		f.Add(bytes.Replace([]byte(testManifest), []byte(from[0]), []byte(from[1]), 1))
	}
	examples, _ := filepath.Glob("../../examples/fleet/*.json")
	for _, path := range examples {
		if doc, err := os.ReadFile(path); err == nil {
			f.Add(doc)
		}
	}
	mux := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		call(t, mux, http.MethodPost, "/v1/fleet", body)
		call(t, mux, http.MethodGet, "/v1/fleet", nil)
	})
}
