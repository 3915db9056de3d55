package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pie"
)

// startTestServer brings up the full serving path a real deployment uses:
// external-clock engine, running event loop, HTTP mux. This exercises the
// Inject path from real goroutines — the external-mode regression fixed in
// PR 1 (the clock must not finish itself while no process is live).
func startTestServer(t *testing.T, cfg pie.Config) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp
}

// postLaunch sends a /v1/launch spec running program with one JSON
// argument.
func postLaunch(ts *httptest.Server, program, arg string) (*http.Response, error) {
	spec, _ := json.Marshal(launchBody{Program: program, Args: []string{arg}})
	return http.Post(ts.URL+"/v1/launch", "application/json", bytes.NewReader(spec))
}

func TestLaunchRecvWaitRoundTrip(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 7})

	resp, err := postLaunch(ts, "text_completion", `{"prompt":"Hello, ","max_tokens":4,"first_token_ack":true}`)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	var launched struct {
		ID      int    `json:"id"`
		Program string `json:"program"`
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("launch: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &launched); err != nil {
		t.Fatalf("launch: bad JSON %q: %v", body, err)
	}
	if launched.ID != 1 || launched.Program != "text_completion" {
		t.Fatalf("launch: got %+v", launched)
	}

	// First message is the first-token ack, second the completion text.
	var msg struct {
		Message string `json:"message"`
	}
	if resp := getJSON(t, fmt.Sprintf("%s/v1/recv?id=%d", ts.URL, launched.ID), &msg); resp.StatusCode != http.StatusOK {
		t.Fatalf("recv: status %d", resp.StatusCode)
	}
	if msg.Message != "first-token" {
		t.Fatalf("recv: got %q, want first-token ack", msg.Message)
	}
	if resp := getJSON(t, fmt.Sprintf("%s/v1/recv?id=%d", ts.URL, launched.ID), &msg); resp.StatusCode != http.StatusOK {
		t.Fatalf("recv 2: status %d", resp.StatusCode)
	}
	if msg.Message == "" {
		t.Fatal("recv 2: empty completion text")
	}

	var waited struct {
		OutputTokens int    `json:"outputTokens"`
		InferCalls   int    `json:"inferCalls"`
		VirtualTime  string `json:"virtualTime"`
		Error        string `json:"error"`
	}
	if resp := getJSON(t, fmt.Sprintf("%s/v1/wait?id=%d", ts.URL, launched.ID), &waited); resp.StatusCode != http.StatusOK {
		t.Fatalf("wait: status %d", resp.StatusCode)
	}
	if waited.Error != "" {
		t.Fatalf("wait: inferlet error %q", waited.Error)
	}
	if waited.OutputTokens != 4 {
		t.Fatalf("wait: outputTokens = %d, want 4", waited.OutputTokens)
	}
	if waited.InferCalls == 0 || waited.VirtualTime == "" {
		t.Fatalf("wait: missing instrumentation: %+v", waited)
	}
}

func TestSendRecvEcho(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 7})

	// agent_react waits for a task message before acting; use
	// text_completion's ack probe instead: Ack sends before generation.
	resp, err := postLaunch(ts, "text_completion", `{"prompt":"Hi","max_tokens":2,"ack":true}`)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var msg struct {
		Message string `json:"message"`
	}
	getJSON(t, ts.URL+"/v1/recv?id=1", &msg)
	if msg.Message != "ack" {
		t.Fatalf("recv: got %q, want ack", msg.Message)
	}
	// Send is fire-and-forget into the inferlet mailbox; the handler must
	// still return OK even though text_completion never reads it.
	sresp, err := http.Post(ts.URL+"/v1/send?id=1", "text/plain", strings.NewReader("ping"))
	if err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("send: %v status %v", err, sresp.Status)
	}
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()
}

func TestStatsReportsReplicas(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{
		Seed:      7,
		Replicas:  2,
		Placement: pie.PlaceRoundRobin,
	})

	// Two launches round-robin across both replicas.
	for i := 0; i < 2; i++ {
		resp, err := postLaunch(ts, "text_completion", `{"prompt":"Hi","max_tokens":2}`)
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	getJSON(t, ts.URL+"/v1/wait?id=1", nil)
	getJSON(t, ts.URL+"/v1/wait?id=2", nil)

	var stats struct {
		Engine struct {
			Launches       int
			Batches        int
			ActiveReplicas int
		} `json:"engine"`
		Replicas []struct {
			ID         int    `json:"id"`
			Device     string `json:"device"`
			Active     bool   `json:"active"`
			Placements int    `json:"placements"`
			Batches    int    `json:"batches"`
		} `json:"replicas"`
	}
	if resp := getJSON(t, ts.URL+"/v1/stats", &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if stats.Engine.Launches != 2 || stats.Engine.ActiveReplicas != 2 {
		t.Fatalf("stats: engine = %+v", stats.Engine)
	}
	if len(stats.Replicas) != 2 {
		t.Fatalf("stats: %d replica entries, want 2", len(stats.Replicas))
	}
	for i, r := range stats.Replicas {
		if r.ID != i || !r.Active || r.Device != fmt.Sprintf("l4-%d", i) {
			t.Fatalf("stats: replica %d = %+v", i, r)
		}
		if r.Placements != 1 {
			t.Fatalf("stats: replica %d placements = %d, want 1 (round-robin)", i, r.Placements)
		}
		if r.Batches == 0 {
			t.Fatalf("stats: replica %d ran no batches", i)
		}
	}
}

// errBody decodes the structured {"error":{code,message}} body.
type errBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func TestErrorPaths(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 7})

	resp, err := postLaunch(ts, "no_such_program", "")
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	var launchErr errBody
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("launch unknown program: status %d, want 404", resp.StatusCode)
	}
	if err := json.Unmarshal(blob, &launchErr); err != nil || launchErr.Error.Code != "no_such_program" {
		t.Fatalf("launch error body %s (code %q), want no_such_program", blob, launchErr.Error.Code)
	}
	if resp := getJSON(t, ts.URL+"/v1/recv?id=99", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("recv unknown id: status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/wait?id=notanumber", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wait bad id: status %d, want 400", resp.StatusCode)
	}
	for _, path := range []string{"/v1/send?id=99", "/v1/stream?id=99", "/v1/close?id=99"} {
		if resp := getJSON(t, ts.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/programs", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("programs: status %d", resp.StatusCode)
	}
}

// TestOneWireSurface: /v1/ with a JSON launch spec is the only way in. The
// unversioned paths are gone (404), and the old ?program= query form is
// not a launch spec: its body lacks a program and fails typed.
func TestOneWireSurface(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 7})

	for _, path := range []string{"/launch", "/send", "/recv", "/wait", "/close", "/abort", "/stream", "/stats", "/programs", "/fleet", "/debug/pprof/"} {
		if resp := getJSON(t, ts.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/stats", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d, want 200", resp.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/v1/launch?program=text_completion", "application/json",
		strings.NewReader(`{"prompt":"Hi","max_tokens":2}`))
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	var eb errBody
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?program= launch: status %d, want 400 (%s)", resp.StatusCode, blob)
	}
	if err := json.Unmarshal(blob, &eb); err != nil || eb.Error.Code != "invalid_argument" {
		t.Fatalf("?program= launch: error body %s, want invalid_argument", blob)
	}
}

// TestPprofFlagServesItsOwnListener: -pprof starts a listener that serves the
// profiles and none of the API (TestOneWireSurface has the other half: the
// API mux answers 404 on /debug/pprof/).
func TestPprofFlagServesItsOwnListener(t *testing.T) {
	opts, err := buildConfig(flag.NewFlagSet("test", flag.ContinueOnError), []string{"-pprof", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := servePprof(opts.Pprof)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(blob), "goroutine profile:") {
		t.Fatalf("GET /debug/pprof/goroutine: status %d, body %.80q", resp.StatusCode, blob)
	}
	if resp := getJSON(t, base+"/v1/stats", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("the pprof listener answers /v1/stats with %d, want 404", resp.StatusCode)
	}
	if _, err := servePprof(ln.Addr().String()); err == nil {
		t.Error("a second listener on the same address started")
	}
}

// TestToolCallingAgent: the server installs the tool services the agent
// programs call; a one-step ReACT agent reaches search.api from inside the
// inferlet and the call shows up in the engine stats.
func TestToolCallingAgent(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 7})

	resp, err := postLaunch(ts, "agent_react", `{"steps":1,"think_tokens":2,"obs_tokens":4,"final_tokens":2}`)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var waited struct {
		Error string `json:"error"`
	}
	getJSON(t, ts.URL+"/v1/wait?id=1", &waited)
	if waited.Error != "" {
		t.Fatalf("wait: inferlet error %q", waited.Error)
	}
	var stats struct {
		Engine struct{ ToolCalls int } `json:"engine"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Engine.ToolCalls != 1 {
		t.Fatalf("engine tool calls = %d, want 1", stats.Engine.ToolCalls)
	}
}

// TestRecvAfterFinishGone covers the message path on a finished inferlet:
// queued messages stay readable, the closed mailbox reports 410, and a
// waited-on run is evicted entirely (404).
func TestRecvAfterFinishGone(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 7})

	resp, err := postLaunch(ts, "text_completion", `{"prompt":"Hi","max_tokens":2}`)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The completion text queues once the inferlet finishes.
	var msg struct {
		Message string `json:"message"`
	}
	if resp := getJSON(t, ts.URL+"/v1/recv?id=1", &msg); resp.StatusCode != http.StatusOK {
		t.Fatalf("recv queued: status %d", resp.StatusCode)
	}
	// Nothing else will ever arrive: the mailbox is closed.
	if resp := getJSON(t, ts.URL+"/v1/recv?id=1", nil); resp.StatusCode != http.StatusGone {
		t.Fatalf("recv drained: status %d, want 410", resp.StatusCode)
	}
	// Wait reports and evicts; the id is gone afterwards.
	if resp := getJSON(t, ts.URL+"/v1/wait?id=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("wait: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/recv?id=1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("recv after wait eviction: status %d, want 404", resp.StatusCode)
	}
}

// TestRunTableEviction: /v1/wait and /v1/close both shrink the handle
// table, so a long-lived server does not leak completed runs.
func TestRunTableEviction(t *testing.T) {
	s, ts := startTestServer(t, pie.Config{Seed: 7})

	for i := 0; i < 3; i++ {
		resp, err := postLaunch(ts, "text_completion", `{"prompt":"Hi","max_tokens":2}`)
		if err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if n := s.liveRuns(); n != 3 {
		t.Fatalf("live runs = %d, want 3", n)
	}
	getJSON(t, ts.URL+"/v1/wait?id=1", nil)
	if n := s.liveRuns(); n != 2 {
		t.Fatalf("live runs after wait = %d, want 2", n)
	}
	var closed struct {
		Status string `json:"status"`
		ID     int    `json:"id"`
	}
	if resp := getJSON(t, ts.URL+"/v1/close?id=2", &closed); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	if closed.Status != "closed" || closed.ID != 2 {
		t.Fatalf("close body %+v", closed)
	}
	if n := s.liveRuns(); n != 1 {
		t.Fatalf("live runs after close = %d, want 1", n)
	}
	// Closing twice is a 404: the handle is gone.
	if resp := getJSON(t, ts.URL+"/v1/close?id=2", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double close: status %d, want 404", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/v1/wait?id=3", nil)
	if n := s.liveRuns(); n != 0 {
		t.Fatalf("live runs after full drain = %d, want 0", n)
	}
}

// TestSSEStream: /v1/stream delivers every inferlet message as an SSE
// data event, then event: end when the mailbox closes.
func TestSSEStream(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 7})

	resp, err := postLaunch(ts, "text_completion", `{"prompt":"Hello, ","max_tokens":4,"first_token_ack":true}`)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	sresp, err := http.Get(ts.URL + "/v1/stream?id=1")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	body, err := io.ReadAll(sresp.Body) // server closes at event: end
	if err != nil {
		t.Fatalf("stream read: %v", err)
	}
	events := string(body)
	if !strings.HasPrefix(events, "data: first-token\n\n") {
		t.Fatalf("stream did not lead with the first-token ack:\n%s", events)
	}
	if !strings.Contains(events, "event: end\n") {
		t.Fatalf("stream did not terminate with event: end:\n%s", events)
	}
	// Two data events (ack + completion text) precede the end.
	if n := strings.Count(events, "data: "); n < 3 { // 2 messages + end's data line
		t.Fatalf("stream carried %d data lines, want >= 3:\n%s", n, events)
	}
	// Streaming does not evict: wait still knows the run.
	if resp := getJSON(t, ts.URL+"/v1/wait?id=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("wait after stream: status %d", resp.StatusCode)
	}
}

// TestProgramsManifestListing: /v1/programs reports the versioned
// registry with manifest details; ?name= narrows it, unknown names 404.
func TestProgramsManifestListing(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 7})

	var progs []struct {
		Name       string   `json:"name"`
		Version    string   `json:"version"`
		Latest     bool     `json:"latest"`
		BinarySize int      `json:"binary_size"`
		Traits     []string `json:"traits"`
	}
	if resp := getJSON(t, ts.URL+"/v1/programs", &progs); resp.StatusCode != http.StatusOK {
		t.Fatalf("programs: status %d", resp.StatusCode)
	}
	if len(progs) == 0 {
		t.Fatal("programs: empty registry")
	}
	found := false
	for _, p := range progs {
		if p.Name == "text_completion" {
			found = true
			if !p.Latest || p.Version == "" || p.BinarySize == 0 {
				t.Fatalf("text_completion entry incomplete: %+v", p)
			}
			if len(p.Traits) == 0 {
				t.Fatalf("text_completion manifest lists no required traits: %+v", p)
			}
		}
	}
	if !found {
		t.Fatal("programs: text_completion missing from listing")
	}

	progs = nil
	if resp := getJSON(t, ts.URL+"/v1/programs?name=text_completion", &progs); resp.StatusCode != http.StatusOK {
		t.Fatalf("programs?name=: status %d", resp.StatusCode)
	}
	if len(progs) != 1 || progs[0].Name != "text_completion" {
		t.Fatalf("programs?name= returned %+v", progs)
	}

	resp := getJSON(t, ts.URL+"/v1/programs?name=nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("programs unknown name: status %d, want 404", resp.StatusCode)
	}
}

// TestLaunchSpecBody: /v1/launch takes a JSON launch spec (program
// reference, args, client tag), resolving name@version.
func TestLaunchSpecBody(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 7})

	resp, err := http.Post(ts.URL+"/v1/launch", "application/json",
		strings.NewReader(`{"program":"text_completion@1.0.0",`+
			`"args":["{\"prompt\":\"Hi\",\"max_tokens\":2}"],"client_tag":"tenant-7"}`))
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("launch spec body: status %d: %s", resp.StatusCode, blob)
	}
	var launched struct {
		ID        int    `json:"id"`
		Program   string `json:"program"`
		Version   string `json:"version"`
		ClientTag string `json:"client_tag"`
	}
	if err := json.Unmarshal(blob, &launched); err != nil {
		t.Fatalf("launch spec body: bad JSON %s: %v", blob, err)
	}
	if launched.Program != "text_completion" || launched.Version != "1.0.0" || launched.ClientTag != "tenant-7" {
		t.Fatalf("launch spec body: got %+v", launched)
	}
	getJSON(t, fmt.Sprintf("%s/v1/wait?id=%d", ts.URL, launched.ID), nil)

	// Error bodies: malformed spec, missing program, unknown version.
	cases := []struct {
		body   string
		status int
		code   string
	}{
		{"not json", http.StatusBadRequest, "invalid_argument"},
		{`{"args":["x"]}`, http.StatusBadRequest, "invalid_argument"},
		{`{"program":"text_completion@9.9.9"}`, http.StatusNotFound, "no_such_program"},
		{`{"program":"text_completion","deadline_ms":-5}`, http.StatusBadRequest, "invalid_argument"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/launch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("launch %q: %v", tc.body, err)
		}
		var eb errBody
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("launch %q: status %d, want %d (%s)", tc.body, resp.StatusCode, tc.status, blob)
		}
		if err := json.Unmarshal(blob, &eb); err != nil || eb.Error.Code != tc.code {
			t.Fatalf("launch %q: error body %s, want code %q", tc.body, blob, tc.code)
		}
	}
}

// TestAbortEndpoint: /v1/abort cancels a running inferlet (wait reports
// the abort), and its error bodies cover bad ids, unknown ids, and
// already-finished runs.
func TestAbortEndpoint(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 7})

	// A long generation so the abort lands mid-run.
	resp, err := postLaunch(ts, "text_completion", `{"prompt":"Hello, ","max_tokens":512}`)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var aborted struct {
		Status string `json:"status"`
		ID     int    `json:"id"`
	}
	if resp := getJSON(t, ts.URL+"/v1/abort?id=1", &aborted); resp.StatusCode != http.StatusOK {
		t.Fatalf("abort: status %d", resp.StatusCode)
	}
	if aborted.Status != "aborted" || aborted.ID != 1 {
		t.Fatalf("abort body %+v", aborted)
	}
	var waited struct {
		Error string `json:"error"`
	}
	if resp := getJSON(t, ts.URL+"/v1/wait?id=1", &waited); resp.StatusCode != http.StatusOK {
		t.Fatalf("wait after abort: status %d", resp.StatusCode)
	}
	if !strings.Contains(waited.Error, "aborted") {
		t.Fatalf("wait after abort: error %q, want abort reason", waited.Error)
	}

	// Error bodies.
	if resp := getJSON(t, ts.URL+"/v1/abort?id=notanumber", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("abort bad id: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/abort?id=99", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("abort unknown id: status %d, want 404", resp.StatusCode)
	}

	// Aborting a finished run is a structured conflict.
	resp, err = postLaunch(ts, "text_completion", `{"prompt":"Hi","max_tokens":2}`)
	if err != nil {
		t.Fatalf("launch 2: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// The stream ends only once the run is done; waiting for the text
	// message alone would race the inferlet's last steps against the abort.
	sresp, err := http.Get(ts.URL + "/v1/stream?id=2")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()
	var eb errBody
	resp = getJSON(t, ts.URL+"/v1/abort?id=2", nil)
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("abort finished run: status %d, want 409", resp.StatusCode)
	}
	_ = blob
	resp2, err := http.Get(ts.URL + "/v1/abort?id=2")
	if err != nil {
		t.Fatalf("abort finished run again: %v", err)
	}
	blob2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err := json.Unmarshal(blob2, &eb); err != nil || eb.Error.Code != "already_finished" {
		t.Fatalf("abort finished run: error body %s, want already_finished", blob2)
	}
}

// waitReplicasLost polls /v1/stats until the health monitor has declared
// at least n replicas dead. An idle external-mode clock runs its timers at
// wall-clock pace, so scheduled faults and their detection complete within
// a few health intervals of wall time.
func waitReplicasLost(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var doc struct {
			Engine struct {
				ReplicasLost int `json:"ReplicasLost"`
			} `json:"engine"`
		}
		getJSON(t, ts.URL+"/v1/stats", &doc)
		if doc.Engine.ReplicasLost >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("health monitor never declared %d replica(s) dead", n)
}

// TestOverloadAndReplicaLostLaunchBodies: once the fault plan crash-stops
// the only replica and the health monitor declares it dead, a best-effort
// launch is shed by the saturation guard with a 429 "overloaded" body (and
// a Retry-After header), while a high-priority launch fails placement with
// a 503 "replica_lost" body.
func TestOverloadAndReplicaLostLaunchBodies(t *testing.T) {
	plan, err := pie.ParseFaultPlan("crash:0@1ms")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startTestServer(t, pie.Config{
		Seed:     7,
		Replicas: 1,
		Health:   pie.HealthConfig{Enabled: true, Interval: 2 * time.Millisecond},
		Shed:     pie.ShedConfig{Enabled: true},
		Faults:   plan,
	})
	waitReplicasLost(t, ts, 1)

	post := func(priority int) (*http.Response, []byte) {
		body := fmt.Sprintf(`{"program":"text_completion","args":["{\"prompt\":\"Hi\",\"max_tokens\":2}"],"priority":%d}`, priority)
		resp, err := http.Post(ts.URL+"/v1/launch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, blob
	}

	resp, blob := post(-1) // best-effort: shed
	var eb errBody
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("best-effort launch on dead cluster: status %d, want 429 (%s)", resp.StatusCode, blob)
	}
	if err := json.Unmarshal(blob, &eb); err != nil || eb.Error.Code != "overloaded" {
		t.Fatalf("shed body %s (code %q), want overloaded", blob, eb.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}

	resp, blob = post(0) // high-priority: typed placement failure
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("launch on dead cluster: status %d, want 503 (%s)", resp.StatusCode, blob)
	}
	if err := json.Unmarshal(blob, &eb); err != nil || eb.Error.Code != "replica_lost" {
		t.Fatalf("dead-cluster body %s (code %q), want replica_lost", blob, eb.Error.Code)
	}
}

// TestWaitReportsReplicaLost: a hang fault freezes the only replica's
// device without failing health checks while it is idle (no outstanding
// work means no missed progress). The launch therefore places normally,
// its first inference call stalls forever, the health monitor times the
// replica out, and the parked /v1/wait returns a typed replica_lost error
// body instead of hanging.
func TestWaitReportsReplicaLost(t *testing.T) {
	plan, err := pie.ParseFaultPlan("hang:0@1ms")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startTestServer(t, pie.Config{
		Seed:     7,
		Replicas: 1,
		Health: pie.HealthConfig{Enabled: true, Interval: 2 * time.Millisecond,
			HangTimeout: 40 * time.Millisecond},
		Faults: plan,
	})

	resp, err := postLaunch(ts, "text_completion", `{"prompt":"Hi","max_tokens":4}`)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("launch on hung-but-undetected replica: status %d (%s)", resp.StatusCode, blob)
	}

	var waited struct {
		Error     string `json:"error"`
		ErrorCode string `json:"error_code"`
	}
	getJSON(t, ts.URL+"/v1/wait?id=1", &waited)
	if waited.ErrorCode != "replica_lost" {
		t.Fatalf("wait on hung replica: error %q code %q, want replica_lost", waited.Error, waited.ErrorCode)
	}
	if !strings.Contains(waited.Error, "replica lost") {
		t.Fatalf("wait error %q does not mention replica loss", waited.Error)
	}
}

// TestErrCodeClassification pins the machine-readable error codes /v1/
// bodies carry, including precedence: a retry-budget-exhausted error that
// wraps its replica-lost cause must classify as the exhaustion, not the
// cause.
func TestErrCodeClassification(t *testing.T) {
	for want, err := range map[string]error{
		"no_such_program":        pie.ErrNoSuchProgram,
		"unsatisfied_manifest":   pie.ErrUnsatisfiedManifest,
		"no_such_class":          pie.ErrNoSuchClass,
		"no_decode_capacity":     pie.ErrNoDecodeCapacity,
		"overloaded":             fmt.Errorf("wrapped: %w", pie.ErrOverloaded),
		"retry_budget_exhausted": fmt.Errorf("%w: %w", pie.ErrRetryBudgetExhausted, pie.ErrReplicaLost),
		"replica_lost":           pie.ErrReplicaLost,
		"transient_fault":        pie.ErrTransientFault,
		"aborted":                pie.ErrAborted,
		"deadline_exceeded":      pie.ErrDeadlineExceeded,
		"terminated":             pie.ErrTerminated,
		"internal":               errors.New("disk on fire"),
	} {
		if got := errCode(err); got != want {
			t.Errorf("errCode(%v) = %q, want %q", err, got, want)
		}
	}
}

// TestServiceClassLaunchAndStats drives the SLO surface end to end over
// HTTP: a classed launch admits and samples into the class tracker, an
// unknown class fails typed at the API boundary, and /v1/stats reports the
// per-class attainment block plus per-replica variant/cost columns.
func TestServiceClassLaunchAndStats(t *testing.T) {
	classes := []pie.ServiceClass{
		{Name: "interactive", TTFTTarget: 250 * time.Millisecond, ITLTarget: 50 * time.Millisecond, Priority: 10},
		{Name: "batch", Degradable: true},
	}
	variants := []pie.ReplicaVariant{
		{Name: "l4", CostRate: 1, Count: 1},
		{Name: "l4e", CostRate: 0.5, Slowdown: 1.2},
	}
	_, ts := startTestServer(t, pie.Config{Seed: 7, Replicas: 2, Classes: classes, Variants: variants})

	launch := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/launch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	resp, body := launch(`{"program":"text_completion","args":["{\"prompt\":\"Hi\",\"max_tokens\":2}"],"class":"interactive"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classed launch: status %d: %s", resp.StatusCode, body)
	}
	var launched struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &launched); err != nil {
		t.Fatal(err)
	}
	if resp := getJSON(t, fmt.Sprintf("%s/v1/wait?id=%d", ts.URL, launched.ID), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("wait: status %d", resp.StatusCode)
	}

	// A class outside the registry fails typed before dispatch.
	resp, body = launch(`{"program":"text_completion","args":["{}"],"class":"platinum"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "no_such_class") {
		t.Fatalf("unknown class: status %d body %s", resp.StatusCode, body)
	}

	var st struct {
		Engine struct {
			Classes []struct {
				Class       string  `json:"class"`
				TTFTSamples int     `json:"ttft_samples"`
				TTFTAttain  float64 `json:"ttft_attainment"`
			}
		} `json:"engine"`
		Replicas []struct {
			Device   string  `json:"device"`
			Variant  string  `json:"variant"`
			CostRate float64 `json:"cost_rate"`
		} `json:"replicas"`
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	if len(st.Engine.Classes) != 2 || st.Engine.Classes[0].Class != "batch" || st.Engine.Classes[1].Class != "interactive" {
		t.Fatalf("class stats = %+v, want sorted [batch interactive]", st.Engine.Classes)
	}
	if got := st.Engine.Classes[1]; got.TTFTSamples == 0 || got.TTFTAttain != 1 {
		t.Fatalf("interactive tracker never sampled: %+v", got)
	}
	if len(st.Replicas) != 2 || st.Replicas[0].Variant != "l4" || st.Replicas[1].Variant != "l4e" ||
		st.Replicas[1].CostRate != 0.5 || st.Replicas[1].Device != "l4e-1" {
		t.Fatalf("replica variant stats = %+v", st.Replicas)
	}
}

// TestDisaggregatedStatsReportRoles serves a prefill/decode pool and
// checks the /v1/stats wire form: every replica row names its role, and the
// handoff traffic a session generates shows up as handoffs_out on the
// prefill replica and handoffs_in on a decode one.
func TestDisaggregatedStatsReportRoles(t *testing.T) {
	roles := []pie.RoleSpec{{Role: pie.RolePrefill, Count: 1}, {Role: pie.RoleDecode}}
	_, ts := startTestServer(t, pie.Config{
		Seed: 7, Replicas: 3, Placement: pie.PlaceLeastLoaded, Roles: roles,
	})

	resp, err := postLaunch(ts, "text_completion", `{"prompt":"Hi","max_tokens":12}`)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	getJSON(t, ts.URL+"/v1/wait?id=1", nil)

	var st struct {
		Engine struct {
			Handoffs     int
			HandoffPages int
		} `json:"engine"`
		Replicas []struct {
			ID          int    `json:"id"`
			Role        string `json:"role"`
			HandoffsIn  int    `json:"handoffs_in"`
			HandoffsOut int    `json:"handoffs_out"`
		} `json:"replicas"`
	}
	getJSON(t, ts.URL+"/v1/stats", &st)
	if len(st.Replicas) != 3 {
		t.Fatalf("stats: %d replica entries, want 3", len(st.Replicas))
	}
	if st.Replicas[0].Role != "prefill" || st.Replicas[1].Role != "decode" || st.Replicas[2].Role != "decode" {
		t.Fatalf("replica roles = %+v, want [prefill decode decode]", st.Replicas)
	}
	if st.Engine.Handoffs != 1 || st.Engine.HandoffPages == 0 {
		t.Fatalf("engine handoff stats = %+v, want one migration with pages", st.Engine)
	}
	if st.Replicas[0].HandoffsOut != 1 {
		t.Fatalf("prefill handoffs_out = %d, want 1", st.Replicas[0].HandoffsOut)
	}
	if st.Replicas[1].HandoffsIn+st.Replicas[2].HandoffsIn != 1 {
		t.Fatalf("decode handoffs_in = %+v, want 1 total", st.Replicas)
	}
}

// TestBuildConfig covers the boot without -config: one plain replica at
// the default seed, nothing armed, and malformed flag values rejected.
// (TestBuildConfigManifest covers each remaining flag with and without a
// manifest.)
func TestBuildConfig(t *testing.T) {
	fs := func() *flag.FlagSet { return flag.NewFlagSet("test", flag.ContinueOnError) }

	opts, err := buildConfig(fs(), nil)
	if err != nil || opts.Addr != ":8080" {
		t.Fatalf("defaults: addr=%q err=%v", opts.Addr, err)
	}
	cfg := opts.Cfg
	if cfg.Seed != defaultSeed || cfg.Replicas != 1 || cfg.Fleet != nil || cfg.Health.Enabled || cfg.Shed.Enabled ||
		!cfg.Faults.Empty() || cfg.DefaultRetry.Enabled() {
		t.Fatalf("default config is not one plain replica at seed %d: %+v", defaultSeed, cfg)
	}
	if opts, err = buildConfig(fs(), []string{"-addr", ":0"}); err != nil || opts.Addr != ":0" {
		t.Fatalf("-addr: %q, %v", opts.Addr, err)
	}
	if _, err := buildConfig(fs(), []string{"-fault-plan", "explode:1@5ms"}); err == nil {
		t.Error("malformed -fault-plan accepted")
	}
}
