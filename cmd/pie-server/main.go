// Command pie-server exposes a Pie engine over HTTP, mirroring the
// paper's ILM front end: clients upload nothing (programs are registered
// at startup) but can launch inferlets, exchange messages with them,
// stream their output, and inspect engine stats. The virtual clock runs
// in external mode: real HTTP requests inject work, simulated time
// advances instantly between them, and responses report virtual timings.
//
// The HTTP surface lives under /v1/ with structured JSON errors
// ({"error":{"code","message"}}). Completed runs are evicted from the
// handle table by /v1/wait and /v1/close, so long-lived servers do not
// accumulate finished runs. SIGTERM or SIGINT shuts the server down
// gracefully: it takes no new calls, the calls in flight finish or see
// their run aborted, the clock stops, and the process exits 0.
//
// Without -config the server runs one default replica. Anything
// fleet-shaped (replica pools, variants, roles, placement, service
// classes, the SLO scaler, KV tiering, the seed) is declared in a fleet
// manifest (internal/fleet, examples/fleet/):
//
//	pie-server -addr :8080
//	pie-server -config examples/fleet/kv-affinity.json
//	curl -X POST localhost:8080/v1/launch -d '{"program":"text_completion",
//	     "args":["{\"prompt\":\"Hello, \",\"max_tokens\":8}"]}'
//	curl 'localhost:8080/v1/recv?id=1'
//	curl -N 'localhost:8080/v1/stream?id=1'   # SSE message stream
//	curl 'localhost:8080/v1/wait?id=1'        # waits, reports, evicts
//	curl 'localhost:8080/v1/stats'            # engine + per-replica stats
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unicode/utf8"

	"pie"
	"pie/apps"
	"pie/internal/fleet"
	"pie/internal/metrics"
)

type server struct {
	engine *pie.Engine
	ran    chan struct{} // closed when the engine's event loop has returned
	mu     sync.Mutex
	nextID int
	runs   map[int]*pie.Handle
}

// newServer assembles the serving engine exactly as main runs it: every
// app registered, tool services installed, external clock enabled, and the
// event loop running. Tests drive the same path.
func newServer(cfg pie.Config) *server {
	e := pie.New(cfg)
	e.MustRegister(apps.All()...)
	e.RegisterTool("search.api", 40*time.Millisecond, func(string) string { return "search results" })
	e.RegisterTool("code.exec", 80*time.Millisecond, func(string) string { return "exit 0" })
	e.RegisterTool("fn.api", 30*time.Millisecond, func(string) string { return "ok" })
	e.Clock().EnableExternal()
	s := &server{engine: e, ran: make(chan struct{}), runs: make(map[int]*pie.Handle)}
	go func() {
		defer close(s.ran)
		if err := e.Run(); err != nil {
			log.Printf("engine: %v", err)
		}
	}()
	return s
}

// mux routes the HTTP API.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/launch", s.launch)
	mux.HandleFunc("/v1/send", s.send)
	mux.HandleFunc("/v1/recv", s.recv)
	mux.HandleFunc("/v1/wait", s.wait)
	mux.HandleFunc("/v1/close", s.close)
	mux.HandleFunc("/v1/abort", s.abort)
	mux.HandleFunc("/v1/stream", s.stream)
	mux.HandleFunc("/v1/stats", s.stats)
	mux.HandleFunc("/v1/programs", s.programs)
	mux.HandleFunc("/v1/fleet", s.fleet)
	return mux
}

// servePprof serves net/http/pprof, and nothing else, on its own listener
// at addr (-pprof): the API mux never routes /debug/. The listener is
// returned so the caller can read the bound address and close it.
func servePprof(addr string) (net.Listener, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	go func() {
		// Serve returns when ln is closed; a profile may stream for
		// minutes, so there is no write timeout here either.
		_ = (&http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}).Serve(ln)
	}()
	return ln, nil
}

// serverOptions is everything buildConfig decides: the engine config plus
// the server-level knobs (listen address, fleet-manifest path, validate
// mode).
type serverOptions struct {
	Addr       string
	Pprof      string // listen address of the profiling endpoint ("" = none)
	Cfg        pie.Config
	ConfigPath string // fleet manifest the engine was built from ("" = one default replica)
	Validate   bool   // parse/validate the manifest and exit
}

// defaultSeed is the engine seed when no manifest names one (no -config,
// or a manifest whose seed is 0 or absent).
const defaultSeed = 42

// buildConfig defines the CLI surface on fs, parses args, and assembles
// the engine config. Split from main so tests can drive the same flag
// wiring without exec'ing the binary.
//
// The fleet manifest (-config) is the only description of fleet shape.
// Every other flag sets something the manifest has no field for, so it
// applies the same way with or without -config.
func buildConfig(fs *flag.FlagSet, args []string) (serverOptions, error) {
	fail := func(err error) (serverOptions, error) { return serverOptions{}, err }
	addrFlag := fs.String("addr", ":8080", "listen address")
	configPath := fs.String("config", "", "fleet manifest path: pools, variants, roles, placement, classes, scaler, KV policy, seed (empty: one default replica)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address, on its own listener (empty: no profiling endpoint)")
	validate := fs.Bool("validate", false, "with -config: parse and validate the manifest, report, and exit")
	handoffBudget := fs.Int("handoff-budget", 0, "max concurrent prefill->decode KV transfers (0: default)")
	artCache := fs.Int64("artifact-cache", 0, "per-replica warm-artifact cache capacity in bytes (0: device default, <0: unbounded)")
	healthEvery := fs.Duration("health-interval", 0, "replica health-check interval (0 disables the health monitor)")
	hangTimeout := fs.Duration("hang-timeout", 0, "declare a replica dead when work is outstanding and no kernel has completed for this much virtual time past the executing kernel's due time (0: default 250ms)")
	shedWatermark := fs.Float64("shed-watermark", 0, "shed best-effort launches above this cluster KV utilization (0 disables shedding)")
	shedQueue := fs.Float64("shed-queue", 0, "shed best-effort launches above this mean per-replica queue depth (0: default)")
	faultPlan := fs.String("fault-plan", "", "injected fault schedule, e.g. 'crash:1@200ms,hang:2@300ms,slow:3@100ms*4'")
	faultRate := fs.Float64("fault-rate", 0, "per-launch transient fault probability (0 disables)")
	faultSeed := fs.Uint64("fault-seed", 0, "seed for the transient-fault stream (0: the engine seed)")
	retryAttempts := fs.Int("retry-attempts", 0, "default launch retry attempts, including the first (<=1 disables retries)")
	retryBudget := fs.Duration("retry-budget", 0, "default cumulative backoff budget per launch (0: unlimited)")
	if err := fs.Parse(args); err != nil {
		return fail(err)
	}
	// A value out of range would otherwise turn silently into some other
	// setting (a default, or off); each test is written so NaN fails it.
	for _, r := range []struct {
		flag string
		ok   bool
		want string
	}{
		{"handoff-budget", *handoffBudget >= 0, "a count >= 0"},
		{"health-interval", *healthEvery >= 0, "a duration >= 0"},
		{"hang-timeout", *hangTimeout >= 0, "a duration >= 0"},
		{"shed-watermark", *shedWatermark >= 0 && *shedWatermark <= 1, "a fraction in [0, 1]"},
		{"shed-queue", *shedQueue >= 0, "a depth >= 0"},
		{"fault-rate", *faultRate >= 0 && *faultRate <= 1, "a probability in [0, 1]"},
		{"retry-budget", *retryBudget >= 0, "a duration >= 0"},
	} {
		if !r.ok {
			return fail(fmt.Errorf("-%s %s: want %s", r.flag, fs.Lookup(r.flag).Value, r.want))
		}
	}

	cfg := pie.Config{Replicas: 1}
	if *configPath != "" {
		m, err := fleet.ParseFile(*configPath)
		if err != nil {
			return fail(err)
		}
		cfg, err = pie.ConfigFromManifest(m)
		if err != nil {
			return fail(err)
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = defaultSeed
	}
	cfg.HandoffBudget = *handoffBudget
	cfg.ArtifactCacheBytes = *artCache
	if *healthEvery > 0 {
		cfg.Health = pie.HealthConfig{Enabled: true, Interval: *healthEvery, HangTimeout: *hangTimeout}
	}
	if *shedWatermark > 0 {
		cfg.Shed = pie.ShedConfig{Enabled: true, KVWatermark: *shedWatermark, QueueDepth: *shedQueue}
	}
	if *faultPlan != "" || *faultRate > 0 {
		plan, err := pie.ParseFaultPlan(*faultPlan)
		if err != nil {
			return fail(fmt.Errorf("-fault-plan %s: %w", *faultPlan, err))
		}
		built := pie.BuiltReplicas(cfg)
		for _, ev := range plan.Events {
			if ev.Replica >= built {
				return fail(fmt.Errorf("-fault-plan %s: event %v targets replica %d, but only %d replica(s) are built", *faultPlan, ev, ev.Replica, built))
			}
		}
		plan.CallFailRate = *faultRate
		plan.Seed = *faultSeed
		if plan.Seed == 0 {
			plan.Seed = cfg.Seed
		}
		cfg.Faults = plan
	}
	if *retryAttempts > 1 {
		cfg.DefaultRetry = pie.RetryPolicy{MaxAttempts: *retryAttempts, Budget: *retryBudget}
	}
	return serverOptions{Addr: *addrFlag, Pprof: *pprofAddr, Cfg: cfg, ConfigPath: *configPath, Validate: *validate}, nil
}

func main() {
	opts, err := buildConfig(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if opts.Validate {
		// buildConfig already parsed and validated the manifest (and
		// would have log.Fatal'd above on any typed error).
		if opts.ConfigPath == "" {
			log.Fatal("-validate requires -config")
		}
		fmt.Printf("%s: ok\n", opts.ConfigPath)
		return
	}
	s := newServer(opts.Cfg)
	if opts.ConfigPath != "" {
		// SIGHUP re-reads the manifest and hot-applies it, the classic
		// daemon reload contract. POST /v1/fleet is the remote equivalent.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := s.reloadFleet(opts.ConfigPath); err != nil {
					log.Printf("fleet reload %s: %v", opts.ConfigPath, err)
				} else {
					log.Printf("fleet reload %s: applied", opts.ConfigPath)
				}
			}
		}()
	}
	if opts.Pprof != "" {
		ln, err := servePprof(opts.Pprof)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("pie-server listening on %s (%v)", ln.Addr(), s.engine)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
	if err := s.serve(ln, stop, shutdownGrace); err != nil {
		log.Fatal(err)
	}
	log.Print("pie-server: shut down")
}

// shutdownGrace is how long a SIGTERM or SIGINT lets the calls in flight
// finish before the runs still in the handle table are aborted, and then
// again how long the calls that were waiting on those runs get to end.
const shutdownGrace = 5 * time.Second

// serve answers the API on ln until a signal arrives on stop, then shuts
// down in two passes. The listener closes and the calls in flight get grace
// to finish. Then every run still in the handle table is aborted through the
// clock, which ends the streams and waits still open on one, and they get
// the rest of a second grace to report it. Last the clock shuts down, and
// serve returns once the event loop has, leaving no goroutine in inject. It
// reports an error if the listener fails or a call outlives both passes.
func (s *server) serve(ln net.Listener, stop <-chan os.Signal, grace time.Duration) error {
	hs := s.httpServer()
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-stop:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*grace)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- hs.Shutdown(ctx) }()
	var err error
	select {
	case err = <-drained:
		drained = nil
	case <-time.After(grace):
	}
	s.abortAll()
	if drained != nil {
		err = <-drained
	}
	if err != nil {
		hs.Close() // cut the calls that outlived both passes; the clock's shutdown releases their inject
		err = fmt.Errorf("graceful shutdown: %w", err)
	}
	<-served // http.ErrServerClosed
	s.engine.Clock().Shutdown()
	select {
	case <-s.ran:
	case <-time.After(grace):
		return errors.New("graceful shutdown: the event loop did not stop")
	}
	return err
}

// abortAll aborts every run still in the handle table, in launch order.
func (s *server) abortAll() {
	s.mu.Lock()
	ids := slices.Sorted(maps.Keys(s.runs))
	runs := make([]*pie.Handle, len(ids))
	for i, id := range ids {
		runs[i] = s.runs[id]
	}
	s.mu.Unlock()
	s.inject("http:shutdown", func() {
		for _, h := range runs {
			h.Abort()
		}
	})
}

// httpServer bounds what an idle or stalling client can hold: the time to
// send request headers and the life of an idle keep-alive connection.
// There is no WriteTimeout, which would cut every SSE stream and every
// /v1/wait on a long run.
func (s *server) httpServer() *http.Server {
	return &http.Server{
		Handler:           s.mux(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// maxBodyBytes caps the launch, send and fleet request bodies.
const maxBodyBytes = 1 << 20

// readBody reads a request body of at most maxBodyBytes, or answers 413
// payload_too_large (400 for a body that cannot be read) and reports false.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, "payload_too_large",
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
		} else {
			writeErr(w, http.StatusBadRequest, "invalid_argument", "unreadable body")
		}
		return nil, false
	}
	return body, true
}

// reloadFleet re-reads the boot manifest and applies it to the running
// engine (the SIGHUP path; tests drive it directly).
func (s *server) reloadFleet(path string) error {
	m, err := fleet.ParseFile(path)
	if err != nil {
		return err
	}
	var applyErr error
	s.inject("http:fleet-reload", func() { applyErr = s.engine.ApplyFleet(m) })
	return applyErr
}

// inject runs fn as a sim process and blocks the HTTP handler until done.
func (s *server) inject(name string, fn func()) {
	done := make(chan struct{})
	s.engine.Clock().Inject(name, func() {
		defer close(done)
		fn()
	})
	<-done
}

// errCode maps an engine error to the machine-readable code used in /v1/
// error bodies, so clients can branch on failure class (retry a
// replica_lost, back off an overloaded) without parsing message text.
func errCode(err error) string {
	switch {
	case errors.Is(err, pie.ErrNoSuchProgram):
		return "no_such_program"
	case errors.Is(err, pie.ErrUnsatisfiedManifest):
		return "unsatisfied_manifest"
	case errors.Is(err, pie.ErrNoSuchClass):
		return "no_such_class"
	case errors.Is(err, pie.ErrNoDecodeCapacity):
		return "no_decode_capacity"
	case errors.Is(err, pie.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, pie.ErrRetryBudgetExhausted):
		return "retry_budget_exhausted"
	case errors.Is(err, pie.ErrReplicaLost):
		return "replica_lost"
	case errors.Is(err, pie.ErrTransientFault):
		return "transient_fault"
	case errors.Is(err, pie.ErrAborted):
		return "aborted"
	case errors.Is(err, pie.ErrDeadlineExceeded):
		return "deadline_exceeded"
	case errors.Is(err, pie.ErrTerminated):
		return "terminated"
	default:
		return "internal"
	}
}

// writeErr emits the structured error body shared by every endpoint.
func writeErr(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]interface{}{
		"error": map[string]string{"code": code, "message": msg},
	})
}

// launchBody is the /v1/launch request: a wire-form pie.LaunchSpec.
type launchBody struct {
	Program    string   `json:"program"` // "name" or "name@version"
	Args       []string `json:"args"`
	Class      string   `json:"class"` // service class (empty: manifest default)
	Priority   int      `json:"priority"`
	DeadlineMS int64    `json:"deadline_ms"`
	ClientTag  string   `json:"client_tag"`
}

func (s *server) launch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var lb launchBody
	if err := json.Unmarshal(body, &lb); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_argument", "body must be a JSON launch spec")
		return
	}
	if lb.Program == "" {
		writeErr(w, http.StatusBadRequest, "invalid_argument", "launch spec needs a program")
		return
	}
	if lb.DeadlineMS < 0 {
		writeErr(w, http.StatusBadRequest, "invalid_argument", "deadline_ms must be >= 0")
		return
	}
	spec := pie.LaunchSpec{
		Program:   lb.Program,
		Args:      lb.Args,
		Class:     lb.Class,
		Priority:  lb.Priority,
		Deadline:  time.Duration(lb.DeadlineMS) * time.Millisecond,
		ClientTag: lb.ClientTag,
	}
	var h *pie.Handle
	var err error
	s.inject("http:launch", func() { h, err = s.engine.Launch(spec) })
	if err != nil {
		status, code := http.StatusBadRequest, "launch_failed"
		switch {
		case errors.Is(err, pie.ErrNoSuchProgram):
			status, code = http.StatusNotFound, "no_such_program"
		case errors.Is(err, pie.ErrUnsatisfiedManifest):
			status, code = http.StatusConflict, "unsatisfied_manifest"
		case errors.Is(err, pie.ErrNoSuchClass):
			status, code = http.StatusBadRequest, "no_such_class"
		case errors.Is(err, pie.ErrOverloaded):
			// Saturation guard shed a best-effort launch: classic 429,
			// with Retry-After so well-behaved clients back off.
			w.Header().Set("Retry-After", "1")
			status, code = http.StatusTooManyRequests, "overloaded"
		case errors.Is(err, pie.ErrRetryBudgetExhausted),
			errors.Is(err, pie.ErrReplicaLost),
			errors.Is(err, pie.ErrTransientFault):
			status, code = http.StatusServiceUnavailable, errCode(err)
		}
		writeErr(w, status, code, err.Error())
		return
	}
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.runs[id] = h
	s.mu.Unlock()
	name, version := h.Program()
	writeJSON(w, map[string]interface{}{
		"id": id, "program": name, "version": version, "client_tag": h.ClientTag(),
	})
}

// abort cancels a running inferlet: its resources return to the pools and
// a pending or future wait reports the abort error. The handle stays in
// the table so the client can still collect logs via /v1/wait.
func (s *server) abort(w http.ResponseWriter, r *http.Request) {
	h, id, ok := s.handle(w, r)
	if !ok {
		return
	}
	var aborted bool
	s.inject("http:abort", func() { aborted = h.Abort() })
	if !aborted {
		writeErr(w, http.StatusConflict, "already_finished",
			fmt.Sprintf("run %d already finished; nothing to abort", id))
		return
	}
	writeJSON(w, map[string]interface{}{"status": "aborted", "id": id})
}

// handle resolves the id parameter to a live run, or reports the
// structured error it wrote.
func (s *server) handle(w http.ResponseWriter, r *http.Request) (*pie.Handle, int, bool) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_argument", "id must be an integer")
		return nil, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.runs[id]
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown_id", fmt.Sprintf("no run with id %d", id))
		return nil, id, false
	}
	return h, id, true
}

// evict removes a finished run from the handle table.
func (s *server) evict(id int) {
	s.mu.Lock()
	delete(s.runs, id)
	s.mu.Unlock()
}

// liveRuns reports the handle-table size (eviction tests).
func (s *server) liveRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

func (s *server) send(w http.ResponseWriter, r *http.Request) {
	h, _, ok := s.handle(w, r)
	if !ok {
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	s.inject("http:send", func() { h.Send(string(body)) })
	writeJSON(w, map[string]string{"status": "sent"})
}

func (s *server) recv(w http.ResponseWriter, r *http.Request) {
	h, _, ok := s.handle(w, r)
	if !ok {
		return
	}
	var msg string
	var recvErr error
	s.inject("http:recv", func() { msg, recvErr = h.Recv().Get() })
	if recvErr != nil {
		writeErr(w, http.StatusGone, "gone", recvErr.Error())
		return
	}
	writeJSON(w, map[string]string{"message": msg})
}

// wait blocks until the run finishes, reports its result, and evicts the
// handle: a waited-on run is finished business and must not leak in the
// table. Clients drain messages (recv/stream) before waiting.
func (s *server) wait(w http.ResponseWriter, r *http.Request) {
	h, id, ok := s.handle(w, r)
	if !ok {
		return
	}
	var runErr error
	s.inject("http:wait", func() { runErr = h.Wait() })
	cc, ic, tok := h.Stats()
	resp := map[string]interface{}{
		"logs": h.Logs(), "controlCalls": cc, "inferCalls": ic, "outputTokens": tok,
		"virtualTime": s.engine.Now().String(),
	}
	if runErr != nil {
		resp["error"] = runErr.Error()
		resp["error_code"] = errCode(runErr)
	}
	s.evict(id)
	writeJSON(w, resp)
}

// close evicts a run without waiting: the client is done with it.
func (s *server) close(w http.ResponseWriter, r *http.Request) {
	_, id, ok := s.handle(w, r)
	if !ok {
		return
	}
	s.evict(id)
	writeJSON(w, map[string]interface{}{"status": "closed", "id": id})
}

// stream serves the run's messages as Server-Sent Events: one `data:`
// event per inferlet message, then `event: end` when the inferlet's
// mailbox closes (all messages delivered, inferlet finished).
func (s *server) stream(w http.ResponseWriter, r *http.Request) {
	h, _, ok := s.handle(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErr(w, http.StatusInternalServerError, "no_streaming", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	// Drain with TryRecv and sleep on the OnReadable hook instead of
	// parking a sim process in a blocking Recv: an abandoned connection
	// must neither leak a goroutine stuck in inject nor consume a message
	// a live consumer was waiting for. A hook left behind fires into the
	// buffered channel at the run's next message or end and is gone.
	wake := make(chan struct{}, 1)
	for {
		var msgs []string
		var finished bool
		s.inject("http:stream", func() {
			for {
				msg, ok := h.TryRecv()
				if !ok {
					break
				}
				msgs = append(msgs, msg)
			}
			// Messages enqueue before the run resolves done, so done +
			// drained means nothing more will ever arrive.
			if finished = h.Done(); !finished {
				h.OnReadable(func() {
					select {
					case wake <- struct{}{}:
					default:
					}
				})
			}
		})
		for _, msg := range msgs {
			for _, line := range strings.Split(jsonUTF8(msg), "\n") {
				fmt.Fprintf(w, "data: %s\n", line)
			}
			fmt.Fprint(w, "\n")
		}
		if finished {
			fmt.Fprint(w, "event: end\ndata: closed\n\n")
		}
		fl.Flush()
		if finished {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

// jsonUTF8 returns s the way encoding/json carries a string, and so the
// way /v1/recv delivers the same message: every byte that is not part of a
// valid UTF-8 sequence becomes one U+FFFD. (The functional model's greedy
// text is not always UTF-8, and raw invalid bytes are not legal SSE.) The
// string -> []rune conversion is defined to do exactly that, byte for
// byte; strings.ToValidUTF8 would collapse a run into one.
func jsonUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// stats reports engine totals plus per-replica counters. The snapshot
// runs as an injected sim process like every other handler: the counters
// live on the engine's event-loop goroutine.
func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	var engine pie.Stats
	var replicas []metrics.ReplicaStats
	s.inject("http:stats", func() {
		engine = s.engine.Stats()
		replicas = s.engine.ReplicaStats()
	})
	writeJSON(w, map[string]interface{}{
		"engine":   engine,
		"replicas": replicas,
	})
}

// programInfoJSON is the /v1/programs wire form of one registered artifact.
type programInfoJSON struct {
	Name       string   `json:"name"`
	Version    string   `json:"version"`
	Latest     bool     `json:"latest"`
	BinarySize int      `json:"binary_size"`
	Models     []string `json:"models,omitempty"`
	Traits     []string `json:"traits,omitempty"`
	MaxQueues  int      `json:"max_queues,omitempty"`
	MaxKvPages int      `json:"max_kv_pages,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
}

func programJSON(p pie.ProgramInfo) programInfoJSON {
	out := programInfoJSON{
		Name:       p.Name,
		Version:    p.Version,
		Latest:     p.Latest,
		BinarySize: p.BinarySize,
		MaxQueues:  p.Manifest.Limits.MaxQueues,
		MaxKvPages: p.Manifest.Limits.MaxKvPages,
		DeadlineMS: int64(p.Manifest.Limits.Deadline / time.Millisecond),
	}
	for _, m := range p.Manifest.Models {
		out.Models = append(out.Models, string(m))
	}
	for _, t := range p.Manifest.Traits {
		out.Traits = append(out.Traits, string(t))
	}
	return out
}

// programs lists the versioned registry with manifest details; ?name=
// narrows to one program's versions (404 when it is not registered).
func (s *server) programs(w http.ResponseWriter, r *http.Request) {
	var infos []pie.ProgramInfo
	s.inject("http:programs", func() { infos = s.engine.Programs() })
	name := r.URL.Query().Get("name")
	out := make([]programInfoJSON, 0, len(infos))
	for _, p := range infos {
		if name == "" || p.Name == name {
			out = append(out, programJSON(p))
		}
	}
	if name != "" && len(out) == 0 {
		writeErr(w, http.StatusNotFound, "no_such_program",
			fmt.Sprintf("no program named %q", name))
		return
	}
	writeJSON(w, out)
}

// fleetErrStatus maps a manifest/apply error to an HTTP status and the
// machine-readable code clients branch on.
func fleetErrStatus(err error) (int, string) {
	switch {
	case errors.Is(err, pie.ErrNotFleetManaged):
		return http.StatusNotFound, "not_fleet_managed"
	case errors.Is(err, fleet.ErrImmutable):
		return http.StatusConflict, "immutable_field"
	case errors.Is(err, fleet.ErrUnknownReference):
		return http.StatusBadRequest, "unknown_reference"
	case errors.Is(err, fleet.ErrBadVersion):
		return http.StatusBadRequest, "bad_version"
	case errors.Is(err, fleet.ErrAmbiguousPool):
		return http.StatusBadRequest, "ambiguous_pool"
	default:
		return http.StatusBadRequest, "invalid_manifest"
	}
}

// fleet is the declarative-management surface: GET reports the
// controller's desired-vs-actual reconciliation status; POST hot-applies
// a new manifest (the remote equivalent of SIGHUP). Topology changes are
// refused 409 typed immutable_field; a server started without -config
// answers 404 not_fleet_managed.
func (s *server) fleet(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		m, err := fleet.Parse(body)
		if err != nil {
			status, code := fleetErrStatus(err)
			writeErr(w, status, code, err.Error())
			return
		}
		var applyErr error
		s.inject("http:fleet-apply", func() { applyErr = s.engine.ApplyFleet(m) })
		if applyErr != nil {
			status, code := fleetErrStatus(applyErr)
			writeErr(w, status, code, applyErr.Error())
			return
		}
		var st fleet.Status
		s.inject("http:fleet-status", func() { st, _ = s.engine.FleetStatus() })
		writeJSON(w, map[string]interface{}{"status": "applied", "fleet": st})
	case http.MethodGet:
		var st fleet.Status
		var desired *fleet.Manifest
		var ok bool
		s.inject("http:fleet-status", func() {
			if st, ok = s.engine.FleetStatus(); ok {
				desired = s.engine.FleetController().Desired()
			}
		})
		if !ok {
			writeErr(w, http.StatusNotFound, "not_fleet_managed",
				"server was not started from a fleet manifest (-config)")
			return
		}
		writeJSON(w, map[string]interface{}{"fleet": st, "desired": desired})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET or POST")
	}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
