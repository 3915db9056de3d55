package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"pie"
)

// TestMain runs main itself when PIE_SERVER_ARGS is set: the signal test
// execs this binary as the server, with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("PIE_SERVER_ARGS"); ok {
		os.Args = append([]string{"pie-server"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A signal while a stream waits on a run that will not finish by itself: the
// first pass runs out of grace, the run is aborted, the stream ends with its
// end event, serve returns nil (main's exit status 0), the event loop has
// stopped, and no handler is left in inject.
func TestGracefulShutdownMidStream(t *testing.T) {
	s := newServer(pie.Config{Seed: 7})
	s.inject("test:register", func() { s.engine.MustRegister(echoProgram) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- s.serve(ln, stop, 200*time.Millisecond) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{}}
	post := func(path, body string) {
		t.Helper()
		resp, err := client.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %v %v", path, err, resp)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post("/v1/launch", `{"program":"test_echo","args":["2"]}`)
	sresp, err := client.Get(base + "/v1/stream?id=1")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	post("/v1/send?id=1", "one")
	rd := bufio.NewReader(sresp.Body)
	if got, end, err := readEvent(rd); err != nil || end || got != "one" {
		t.Fatalf("stream: %q end=%v err=%v, want the first echo", got, end, err)
	}

	stop <- syscall.SIGTERM
	rest, err := io.ReadAll(rd)
	if err != nil {
		t.Fatalf("stream after the signal: %v", err)
	}
	if !strings.HasSuffix(string(rest), "event: end\ndata: closed\n\n") {
		t.Fatalf("stream after the signal ended with %q, want its end event", rest)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve still running 10 s after the signal")
	}
	select {
	case <-s.ran:
	default:
		t.Fatal("serve returned before the event loop did")
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*server).inject") {
		t.Fatalf("a goroutine is still in inject after shutdown:\n%s", stacks)
	}
}

// The binary itself: SIGTERM while a stream is open lets the run finish,
// the stream ends with its end event, and the process exits with status 0.
func TestSignalExitsCleanly(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PIE_SERVER_ARGS=-addr 127.0.0.1:0")
	stderr, w, err := os.Pipe() // the child's own stderr: read to EOF, whatever Wait does
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	cmd.Stderr = w
	err = cmd.Start()
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	// The log line names the port the listener got.
	logs := bufio.NewScanner(stderr)
	var base string
	for base == "" && logs.Scan() {
		if _, after, ok := strings.Cut(logs.Text(), "pie-server listening on "); ok {
			base = "http://" + strings.Fields(after)[0]
		}
	}
	if base == "" {
		t.Fatal("the server never logged its address")
	}
	go io.Copy(io.Discard, stderr)
	resp, err := http.Post(base+"/v1/launch", "application/json",
		strings.NewReader(`{"program":"text_completion","args":["{\"prompt\":\"Hello, \",\"max_tokens\":512,\"first_token_ack\":true}"]}`))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("launch: %v %v", err, resp)
	}
	resp.Body.Close()
	sresp, err := http.Get(base + "/v1/stream?id=1")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	rd := bufio.NewReader(sresp.Body)
	if got, end, err := readEvent(rd); err != nil || end || got != "first-token" {
		t.Fatalf("stream: %q end=%v err=%v, want the first-token ack", got, end, err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(rd)
	if err != nil || !strings.HasSuffix(string(rest), "event: end\ndata: closed\n\n") {
		t.Fatalf("stream after SIGTERM: %q, %v; want the completion and the end event", rest, err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("pie-server exited with %v, want status 0", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pie-server still running 30 s after SIGTERM")
	}
}
