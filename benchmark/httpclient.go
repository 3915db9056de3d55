package main

// httpclient.go is the only file that knows pie-server: how to build and
// start it, the /v1 routes, and their JSON shapes.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// children are the server processes alive right now; every exit path
// (normal return, fatal error, watchdog, signal) kills them.
var children struct {
	sync.Mutex
	procs map[*exec.Cmd]bool
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for c := range children.procs {
		_ = c.Process.Kill()
		_ = c.Wait()
		delete(children.procs, c)
	}
}

// buildServer compiles cmd/pie-server into dir and returns the binary path
// and the host seconds the build took. It must run inside the pie module.
func buildServer(dir string) (string, float64, error) {
	bin := filepath.Join(dir, "pie-server")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "pie/cmd/pie-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build pie/cmd/pie-server: %w\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

// server is one running pie-server child.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// startServer execs the binary with default flags on a free loopback port
// and returns once /v1/programs answers 200; ready is exec-to-first-200.
func startServer(bin string) (s *server, ready time.Duration, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	dieWithParent(cmd)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	children.Lock()
	if children.procs == nil {
		children.procs = map[*exec.Cmd]bool{}
	}
	children.procs[cmd] = true
	children.Unlock()
	s = &server{cmd: cmd, base: "http://" + addr}
	client := &http.Client{Timeout: time.Second}
	for deadline := t0.Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := client.Get(s.base + "/v1/programs")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return s, time.Since(t0), nil
		}
	}
	s.stop()
	return nil, 0, fmt.Errorf("%s did not answer /v1/programs within 20s", bin)
}

// stop kills the child and waits until it has ended.
func (s *server) stop() {
	children.Lock()
	delete(children.procs, s.cmd)
	children.Unlock()
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// rssMB reads the child's resident set size.
func (s *server) rssMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// conn is one keep-alive client connection to the server.
type conn struct {
	base string
	http *http.Client
}

func (s *server) dial() *conn {
	return &conn{base: s.base, http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *conn) close() { c.http.CloseIdleConnections() }

// httpTimes are the host instants of one HTTP session, as durations since
// the launch request was sent.
type httpTimes struct {
	Begin      time.Time     // launch request sent
	Launched   time.Duration // /v1/launch answered
	FirstEvent time.Duration // stream: first SSE data event read
	EndEvent   time.Duration // stream: "event: end" read; unary: /v1/recv answered
	Done       time.Duration // /v1/wait body read
	Text       string        // the completion
	Tokens     int           // outputTokens from /v1/wait
}

// okBody reads a response to its end and returns the body of a 200.
func okBody(what string, resp *http.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", what, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (c *conn) getJSON(path string, into interface{}) error {
	resp, err := c.http.Get(c.base + path)
	body, err := okBody("GET "+path, resp, err)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, into)
}

// launch posts a JSON launch spec for the program and returns the run id.
func (c *conn) launch(program, args string) (int, error) {
	spec, err := json.Marshal(map[string]interface{}{"program": program, "args": []string{args}, "client_tag": "benchmark"})
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Post(c.base+"/v1/launch", "application/json", bytes.NewReader(spec))
	body, err := okBody("POST /v1/launch", resp, err)
	if err != nil {
		return 0, err
	}
	var out struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("POST /v1/launch: %w", err)
	}
	return out.ID, nil
}

// wait reads /v1/wait: the run's result; the server then forgets the run.
func (c *conn) wait(id int, t *httpTimes) error {
	var out struct {
		OutputTokens int    `json:"outputTokens"`
		Error        string `json:"error"`
	}
	if err := c.getJSON(fmt.Sprintf("/v1/wait?id=%d", id), &out); err != nil {
		return err
	}
	if out.Error != "" {
		return fmt.Errorf("run %d: %s", id, out.Error)
	}
	t.Tokens = out.OutputTokens
	return nil
}

// unary runs one session the request/response way: launch, one recv for
// the completion, wait.
func (c *conn) unary(program, args string) (httpTimes, error) {
	t0 := time.Now()
	t := httpTimes{Begin: t0}
	id, err := c.launch(program, args)
	if err != nil {
		return t, err
	}
	t.Launched = time.Since(t0)
	var msg struct {
		Message string `json:"message"`
	}
	if err := c.getJSON(fmt.Sprintf("/v1/recv?id=%d", id), &msg); err != nil {
		return t, err
	}
	t.Text, t.EndEvent = msg.Message, time.Since(t0)
	t.FirstEvent = t.EndEvent
	if err := c.wait(id, &t); err != nil {
		return t, err
	}
	t.Done = time.Since(t0)
	return t, nil
}

// stream runs one session over server-sent events: launch, read
// /v1/stream until "event: end", wait. The last data event before the end
// is the completion.
func (c *conn) stream(program, args string) (httpTimes, error) {
	t0 := time.Now()
	t := httpTimes{Begin: t0}
	id, err := c.launch(program, args)
	if err != nil {
		return t, err
	}
	t.Launched = time.Since(t0)
	resp, err := c.http.Get(fmt.Sprintf("%s/v1/stream?id=%d", c.base, id))
	if err != nil {
		return t, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return t, fmt.Errorf("GET /v1/stream: %s", resp.Status)
	}
	// Lines end at "\n" alone: a completion may carry a "\r" of its own.
	rd := bufio.NewReader(resp.Body)
	ended, isEnd := false, false
	var data []string
	var readErr error
	for !ended {
		var line string
		if line, readErr = rd.ReadString('\n'); readErr != nil {
			break
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: end"):
			isEnd = true
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: "))
		case line == "": // event boundary
			if isEnd {
				ended, t.EndEvent = true, time.Since(t0)
			} else if len(data) > 0 {
				if t.FirstEvent == 0 {
					t.FirstEvent = time.Since(t0)
				}
				t.Text = jsonSafe(strings.Join(data, "\n"))
			}
			data = nil
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if !ended {
		return t, fmt.Errorf("GET /v1/stream?id=%d: closed before event: end (%v)", id, readErr)
	}
	if err := c.wait(id, &t); err != nil {
		return t, err
	}
	t.Done = time.Since(t0)
	return t, nil
}

// jsonSafe replaces every byte that is not valid UTF-8 with U+FFFD, as
// encoding/json does on the server's unary path; the SSE path sends the
// raw bytes, and the functional model's greedy text is not always UTF-8.
func jsonSafe(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
		} else {
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}

// stats times one /v1/stats round trip.
func (c *conn) stats() (time.Duration, error) {
	t0 := time.Now()
	var out map[string]interface{}
	if err := c.getJSON("/v1/stats", &out); err != nil {
		return 0, err
	}
	if _, ok := out["engine"]; !ok {
		return 0, fmt.Errorf("GET /v1/stats: no engine block")
	}
	return time.Since(t0), nil
}
