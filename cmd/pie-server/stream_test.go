package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"pie"
	"pie/inferlet"
)

// echoProgram sends back each of the first n client messages (n is its one
// argument), then finishes.
var echoProgram = inferlet.Program{
	Name: "test_echo",
	Run: func(s inferlet.Session) error {
		n, err := strconv.Atoi(s.GetArg()[0])
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			msg, err := s.Receive().Get()
			if err != nil {
				return err
			}
			s.Send(msg)
		}
		return nil
	},
}

// startEcho boots a server and launches test_echo for n messages as run 1.
func startEcho(t *testing.T, n int) (*server, *httptest.Server) {
	t.Helper()
	s, ts := startTestServer(t, pie.Config{Seed: 7})
	s.inject("test:register", func() { s.engine.MustRegister(echoProgram) })
	resp, err := postLaunch(ts, "test_echo", strconv.Itoa(n))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("launch test_echo: %v %v", err, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, ts
}

func send(t *testing.T, c *http.Client, ts *httptest.Server, msg string) {
	t.Helper()
	resp, err := c.Post(ts.URL+"/v1/send?id=1", "text/plain", strings.NewReader(msg))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("send %q: %v %v", msg, err, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// readEvent reads one SSE event and returns its data lines joined.
func readEvent(rd *bufio.Reader) (data string, end bool, err error) {
	var lines []string
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return "", false, err
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			return strings.Join(lines, "\n"), end, nil
		case line == "event: end":
			end = true
		case strings.HasPrefix(line, "data: "):
			lines = append(lines, strings.TrimPrefix(line, "data: "))
		}
	}
}

// The same message must read the same from /v1/recv and /v1/stream:
// encoding/json turns every invalid UTF-8 byte into one U+FFFD, and the
// stream must do exactly that too (not collapse the run, not send raw
// bytes).
func TestStreamMatchesRecvOnInvalidUTF8(t *testing.T) {
	_, ts := startEcho(t, 2)
	const raw = "a\xff\xfeb\nsecond \xc3 line"
	send(t, http.DefaultClient, ts, raw)
	var viaRecv struct {
		Message string `json:"message"`
	}
	if resp := getJSON(t, ts.URL+"/v1/recv?id=1", &viaRecv); resp.StatusCode != http.StatusOK {
		t.Fatalf("recv: status %d", resp.StatusCode)
	}
	if want := "a\ufffd\ufffdb\nsecond \ufffd line"; viaRecv.Message != want {
		t.Fatalf("recv delivered %q, want %q", viaRecv.Message, want)
	}
	send(t, http.DefaultClient, ts, raw)
	sresp, err := http.Get(ts.URL + "/v1/stream?id=1")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	viaStream, end, err := readEvent(bufio.NewReader(sresp.Body))
	if err != nil || end {
		t.Fatalf("stream: end=%v err=%v", end, err)
	}
	if viaStream != viaRecv.Message {
		t.Fatalf("stream delivered %q, recv delivered %q", viaStream, viaRecv.Message)
	}
	if got := jsonUTF8("plain"); got != "plain" {
		t.Fatalf("jsonUTF8 changed valid text to %q", got)
	}
}

// A client that drops its stream mid-run takes nothing with it: the next
// message still reaches /v1/recv, and the handler's goroutines are gone.
func TestStreamCancelLeavesRunIntact(t *testing.T) {
	_, ts := startEcho(t, 2)
	client := &http.Client{Transport: &http.Transport{}}
	// goroutines counts them once this client's connections, and the
	// server goroutines serving them, have had time to go. The clock's
	// suspended coroutines are left out: a finished process's coroutine
	// stays pooled for the next one, so their number follows the most
	// processes ever live at once, not what a handler left behind.
	goroutines := func() int {
		client.CloseIdleConnections()
		time.Sleep(50 * time.Millisecond)
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		return strings.Count(stacks, "\ngoroutine ") - strings.Count(stacks, " [coroutine")
	}
	before := goroutines()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/stream?id=1", nil)
	sresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	send(t, client, ts, "one")
	if got, end, err := readEvent(bufio.NewReader(sresp.Body)); err != nil || end || got != "one" {
		t.Fatalf("stream: %q end=%v err=%v, want the first echo", got, end, err)
	}
	// The handler is now asleep on the hook. Walk away.
	cancel()
	sresp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for goroutines() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the stream, %d after it was cancelled:\n%s", before, goroutines(), buf[:runtime.Stack(buf, true)])
		}
	}

	send(t, client, ts, "two")
	var msg struct {
		Message string `json:"message"`
	}
	if resp := getJSON(t, ts.URL+"/v1/recv?id=1", &msg); resp.StatusCode != http.StatusOK || msg.Message != "two" {
		t.Fatalf("recv after the cancelled stream: status %d message %q, want \"two\"", resp.StatusCode, msg.Message)
	}
	var waited struct {
		Error string `json:"error"`
	}
	if resp := getJSON(t, ts.URL+"/v1/wait?id=1", &waited); resp.StatusCode != http.StatusOK || waited.Error != "" {
		t.Fatalf("wait: status %d error %q", resp.StatusCode, waited.Error)
	}
}

// Messages queued before the stream opens are drained in one batch and
// still arrive as one data event each, in order, followed by the end.
func TestStreamBatchedDrain(t *testing.T) {
	s, ts := startEcho(t, 3)
	for _, m := range []string{"one", "two\nlines", "three"} {
		send(t, http.DefaultClient, ts, m)
	}
	h := s.runs[1]
	s.inject("test:wait", func() { _ = h.Wait() }) // all three echoed, run finished
	sresp, err := http.Get(ts.URL + "/v1/stream?id=1")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	body, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := "data: one\n\ndata: two\ndata: lines\n\ndata: three\n\nevent: end\ndata: closed\n\n"
	if string(body) != want {
		t.Fatalf("stream body %q, want %q", body, want)
	}
}

// An abort racing a sleeping stream wakes it through the mailbox's Close:
// the stream ends with event: end instead of hanging. CI runs this package
// under -race.
func TestStreamEndsOnConcurrentAbort(t *testing.T) {
	_, ts := startTestServer(t, pie.Config{Seed: 7})
	resp, err := postLaunch(ts, "text_completion", `{"prompt":"Hello, ","max_tokens":512}`)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	streamed := make(chan string, 1)
	go func() {
		sresp, err := http.Get(ts.URL + "/v1/stream?id=1")
		if err != nil {
			streamed <- err.Error()
			return
		}
		defer sresp.Body.Close()
		body, _ := io.ReadAll(sresp.Body)
		streamed <- string(body)
	}()
	if resp := getJSON(t, ts.URL+"/v1/abort?id=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("abort: status %d", resp.StatusCode)
	}
	select {
	case body := <-streamed:
		if !strings.HasSuffix(body, "event: end\ndata: closed\n\n") {
			t.Fatalf("stream of an aborted run ended with %q", body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream still open 10 s after the run was aborted")
	}
}

// Launch, send and fleet bodies are capped at 1 MiB.
func TestBodyLimits(t *testing.T) {
	_, ts := startEcho(t, 1)
	big := bytes.Repeat([]byte("x"), maxBodyBytes+1)
	spec := func(pad int) []byte {
		b, _ := json.Marshal(launchBody{Program: "text_completion", Args: []string{`{"prompt":"Hi","max_tokens":1}`}, ClientTag: strings.Repeat("t", pad)})
		return b
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
		status     int
		code       string
	}{
		{"launch, normal", "/v1/launch", spec(0), http.StatusOK, ""},
		{"launch, just under the cap", "/v1/launch", spec(maxBodyBytes - 200), http.StatusOK, ""},
		{"launch, over the cap", "/v1/launch", spec(maxBodyBytes), http.StatusRequestEntityTooLarge, "payload_too_large"},
		{"send, over the cap", "/v1/send?id=1", big, http.StatusRequestEntityTooLarge, "payload_too_large"},
		{"send, at the cap", "/v1/send?id=1", big[:maxBodyBytes], http.StatusOK, ""},
		{"fleet, over the cap", "/v1/fleet", big, http.StatusRequestEntityTooLarge, "payload_too_large"},
		{"fleet, normal", "/v1/fleet", []byte(`{"schema": 1}`), http.StatusBadRequest, "ambiguous_pool"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var eb errBody
		_ = json.Unmarshal(raw, &eb)
		if resp.StatusCode != tc.status || eb.Error.Code != tc.code {
			t.Errorf("%s: status %d code %q, want %d %q (%s)", tc.name, resp.StatusCode, eb.Error.Code, tc.status, tc.code, fmt.Sprintf("%.80s", raw))
		}
	}
}

func TestHTTPServerTimeouts(t *testing.T) {
	s := newServer(pie.Config{Seed: 7})
	hs := s.httpServer()
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut SSE streams", hs.WriteTimeout)
	}
}
