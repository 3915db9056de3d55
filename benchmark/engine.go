package main

// engine.go is the only file that touches pie, apps, inferlet and support:
// the engine configurations the workloads run on, the benchmark's own two
// inferlets, the client side of one session, and the counter snapshot. A
// regrouping of pie.Config or pie.Stats is an edit to this file alone.

import (
	"encoding/json"
	"fmt"
	"time"

	"pie"
	"pie/api"
	"pie/apps"
	"pie/inferlet"
	"pie/support"
)

// engineSpec names an engine configuration in the benchmark's own terms.
type engineSpec struct {
	Seed      uint64
	Full      bool // real tensor math (pie.ModeFull); otherwise timing only
	ClientRTT time.Duration

	Replicas      int
	Prefill       int // > 0: this many prefill-role replicas, the rest decode
	HandoffBudget int
	KVAffinity    bool
	Classes       bool // register "interactive" (priority 10) and "batch"
	Health        bool // health monitor on, no faults

	KVPages     int     // device page capacity override
	HostKVRatio float64 // host KV tier as a multiple of device capacity
}

// fleetHangTimeout keeps the health monitor from declaring a replica dead
// during a long batch prefill: the 250 ms default did exactly that to all
// six healthy replicas while this workload was sized (see README).
const fleetHangTimeout = 5 * time.Second

const (
	classInteractive = "interactive"
	classBatch       = "batch"
	benchModel       = "llama-1b"
	tokenMsg         = "t"     // bench programs send this once per output token
	textPrefix       = "text:" // bench_chat's completion, when asked for
)

// Tool latencies of the paper's agent workloads (internal/eval, §7.1); the
// same three services cmd/pie-server registers.
var toolLatency = map[string]time.Duration{
	"search.api": 40 * time.Millisecond,
	"code.exec":  80 * time.Millisecond,
	"fn.api":     30 * time.Millisecond,
}

// engine is one pie.Engine plus the benchmark's tracer.
type engine struct {
	pie *pie.Engine
	tr  *tracer // nil: untraced pass

	// Host-clock stamps taken every `chunk` completed sessions, so a pass's
	// host time can be read per slice of work (see steadyWall).
	chunk  int
	done   int
	stamps []stamp
}

// stamp pairs a host instant with the sim events handled so far.
type stamp struct {
	at     time.Time
	events uint64
}

func (e *engine) tick() {
	e.done++
	if e.chunk > 0 && e.done%e.chunk == 0 {
		// The process-wide counter only moves when a clock finishes; the
		// engine's own clock counts live.
		e.stamps = append(e.stamps, stamp{time.Now(), e.pie.Clock().Events()})
	}
}

func newEngine(spec engineSpec, tr *tracer) *engine {
	cfg := pie.Config{
		Seed:            spec.Seed,
		Mode:            pie.ModeTiming,
		ClientRTT:       spec.ClientRTT,
		Replicas:        spec.Replicas,
		HandoffBudget:   spec.HandoffBudget,
		KVPagesOverride: spec.KVPages,
		HostKVRatio:     spec.HostKVRatio,
		KVEviction:      pie.EvictLRU,
	}
	if spec.Full {
		cfg.Mode = pie.ModeFull
	}
	if spec.Prefill > 0 {
		cfg.Roles = []pie.RoleSpec{{Role: pie.RolePrefill, Count: spec.Prefill}, {Role: pie.RoleDecode}}
	}
	if spec.KVAffinity {
		cfg.Placement = pie.PlaceKVAffinity
	}
	if spec.Classes {
		cfg.Classes = []pie.ServiceClass{{Name: classInteractive, Priority: 10}, {Name: classBatch}}
	}
	if spec.Health {
		cfg.Health = pie.HealthConfig{Enabled: true, HangTimeout: fleetHangTimeout}
	}
	e := &engine{pie: pie.New(cfg), tr: tr}
	e.pie.MustRegister(apps.All()...)
	e.pie.MustRegister(e.benchChat(), e.benchKVHold())
	for name, lat := range toolLatency {
		e.pie.RegisterTool(name, lat, func(string) string { return "ok" })
	}
	return e
}

func (e *engine) spawn(name string, fn func()) { e.pie.Go(name, fn) }
func (e *engine) run() error                   { return e.pie.Run() }
func (e *engine) now() time.Duration           { return e.pie.Now() }
func (e *engine) sleep(d time.Duration)        { e.pie.Sleep(d) }

// --- the benchmark's inferlets ---------------------------------------------

// chatParams configures bench_chat. CacheKey is also what the kv-affinity
// router reads from the blob.
type chatParams struct {
	SID       int    `json:"sid"`
	Prompt    string `json:"prompt"`
	MaxTokens int    `json:"max_tokens"`
	Prefix    string `json:"prefix,omitempty"`
	CacheKey  string `json:"cache_key,omitempty"`
	SendText  bool   `json:"send_text,omitempty"` // also send the completion, as "text:..."
}

func chatArgs(p chatParams) string { return mustJSON(p) }

// progSpans records the spans one inferlet instance emits under its
// session's root span. It does nothing on an untraced pass.
type progSpans struct {
	tr     *tracer
	s      pie.Session
	sid    int
	parent int
}

func (e *engine) progSpans(s pie.Session, sid int) *progSpans {
	if e.tr == nil {
		return nil
	}
	p := &progSpans{tr: e.tr, s: s, sid: sid}
	p.parent = e.tr.begin("prog.run", e.tr.roots[sid], sid, s.Now())
	return p
}

// around times fn as one child span.
func (p *progSpans) around(name string, fn func() error) error {
	if p == nil {
		return fn()
	}
	start := p.s.Now()
	err := fn()
	p.tr.add(name, p.parent, p.sid, start, p.s.Now())
	return err
}

// since records a span from a mark taken earlier to now.
func (p *progSpans) since(name string, start time.Duration) {
	if p != nil {
		p.tr.add(name, p.parent, p.sid, start, p.s.Now())
	}
}

func (p *progSpans) done() {
	if p != nil {
		p.tr.end(p.parent, p.s.Now())
	}
}

// benchChat is the streaming completion inferlet: prefill a prompt (after
// an optional shared prefix, imported when some earlier session exported
// it), then decode MaxTokens tokens, sending one message per token.
func (e *engine) benchChat() pie.Program {
	return pie.Program{
		Name:       "bench_chat",
		BinarySize: 129 << 10,
		Run: func(s pie.Session) error {
			var p chatParams
			if err := json.Unmarshal([]byte(s.GetArg()[0]), &p); err != nil {
				return fmt.Errorf("bench_chat: params: %w", err)
			}
			sp := e.progSpans(s, p.SID)
			defer sp.done()
			var m api.ModelInfo
			for _, mi := range s.AvailableModels() {
				if mi.ID == benchModel {
					m = mi
				}
			}
			ctx, err := chatContext(s, sp, m, p)
			if err != nil {
				return err
			}
			defer ctx.Drop()
			if err := sp.around("prog.fill", func() error { return ctx.Fill(p.Prompt) }); err != nil {
				return err
			}
			mark, step := s.Now(), "prog.first_token"
			res, err := ctx.Generate(support.GenOpts{MaxTokens: p.MaxTokens, OnToken: func(int) {
				sp.since(step, mark)
				mark, step = s.Now(), "prog.step"
				s.Send(tokenMsg)
			}})
			if err != nil {
				return err
			}
			if p.SendText {
				s.Send(textPrefix + res.Text)
			}
			return sp.around("prog.sync", ctx.Sync)
		},
	}
}

// chatContext opens the generation context, reusing the exported KV of a
// shared prefix when there is one (the prefix_caching app's protocol: the
// first session of a key prefills and exports, later ones import). It
// tells the client which happened: "hit", "miss" (exported) or "race"
// (prefilled, but another session exported first).
func chatContext(s pie.Session, sp *progSpans, m api.ModelInfo, p chatParams) (*support.Context, error) {
	if p.CacheKey == "" {
		var ctx *support.Context
		err := sp.around("prog.open", func() (err error) {
			ctx, err = support.NewContext(s, m)
			return err
		})
		return ctx, err
	}
	probe, err := s.Open(m.ID) // reclaimed with the instance, as in the app
	if err != nil {
		return nil, err
	}
	tok, err := probe.Tokenizer()
	if err != nil {
		return nil, err
	}
	alloc, err := probe.Alloc()
	if err != nil {
		return nil, err
	}
	f, err := tok.Encode(p.Prefix)
	if err != nil {
		return nil, err
	}
	toks, err := f.Get()
	if err != nil {
		return nil, err
	}
	aligned := len(toks) / m.PageSize * m.PageSize
	if alloc.HasExport(p.CacheKey) {
		var ctx *support.Context
		err := sp.around("prog.import", func() (err error) {
			ctx, err = support.ImportContext(s, m, p.CacheKey, toks[:aligned])
			return err
		})
		if err != nil {
			return nil, err
		}
		s.Send("hit")
		return ctx, ctx.FillTokens(toks[aligned:])
	}
	var ctx *support.Context
	if err := sp.around("prog.open", func() (err error) {
		ctx, err = support.NewContext(s, m)
		return err
	}); err != nil {
		return nil, err
	}
	if err := ctx.FillTokens(toks[:aligned]); err != nil {
		return nil, err
	}
	note := "miss"
	if err := sp.around("prog.export", func() error { return ctx.Export(p.CacheKey) }); err != nil {
		note = "race"
	}
	s.Send(note)
	return ctx, ctx.FillTokens(toks[aligned:])
}

// kvHoldParams configures bench_kv_hold.
type kvHoldParams struct {
	SID     int `json:"sid"`
	Pages   int `json:"pages"`
	ThinkMS int `json:"think_ms"`
	Decode  int `json:"decode"`
}

func kvHoldArgs(p kvHoldParams) string { return mustJSON(p) }

// benchKVHold is the kv_hold shape of internal/eval/offload.go with one
// message per token: prefill a page budget in one fused forward, sit idle
// (the pages turn cold and become offload victims of other sessions'
// allocations), then decode reading every page, faulting them back in.
func (e *engine) benchKVHold() pie.Program {
	return pie.Program{
		Name:       "bench_kv_hold",
		BinarySize: 64 << 10,
		Run: func(s pie.Session) error {
			var p kvHoldParams
			if err := json.Unmarshal([]byte(s.GetArg()[0]), &p); err != nil {
				return fmt.Errorf("bench_kv_hold: params: %w", err)
			}
			sp := e.progSpans(s, p.SID)
			defer sp.done()
			var q *inferlet.Queue
			if err := sp.around("prog.open", func() (err error) {
				q, err = s.Open(benchModel)
				return err
			}); err != nil {
				return err
			}
			al, err := q.Alloc()
			if err != nil {
				return err
			}
			fz, err := q.Fused()
			if err != nil {
				return err
			}
			var pages []api.KvPage
			if err := sp.around("prog.alloc", func() (err error) {
				pages, err = al.Pages(p.Pages)
				return err
			}); err != nil {
				return err
			}
			outs, err := al.Embeds(1)
			if err != nil {
				return err
			}
			fill := p.Pages*q.Model().PageSize - p.Decode // room for the decode appends
			tokens, positions := make([]int, fill), make([]int, fill)
			for i := range tokens {
				tokens[i], positions[i] = 4+(i*7)%1800, i
			}
			step := func(name string, opts ...inferlet.ForwardOption) (int, error) {
				var toks []int
				err := sp.around(name, func() error {
					f, err := fz.Run(append(opts, inferlet.AppendKv(pages...), inferlet.Output(outs...))...)
					if err != nil {
						return err
					}
					toks, err = f.Get()
					return err
				})
				if err != nil {
					return 0, err
				}
				s.ReportOutputTokens(1)
				s.Send(tokenMsg)
				return toks[0], nil
			}
			last, err := step("prog.first_token", inferlet.InlineTokens(tokens, positions))
			if err != nil {
				return err
			}
			_ = sp.around("prog.think", func() error {
				s.Sleep(time.Duration(p.ThinkMS) * time.Millisecond)
				return nil
			})
			for i := 0; i < p.Decode; i++ {
				last, err = step("prog.step", inferlet.ReadKv(pages...), inferlet.InlineTokens([]int{last}, []int{fill + i}))
				if err != nil {
					return err
				}
			}
			return sp.around("prog.close", q.Close)
		},
	}
}

// --- agents ------------------------------------------------------------------

// agentKinds are the four agent programs of the paper's Fig 6/7, with the
// parameters internal/eval/fig6.go and fig7.go run them at.
var agentKinds = []string{"agent_react", "agent_codeact", "agent_swarm", "fncall_agent"}

// agentArgs returns the launch blob of one agent kind.
func agentArgs(kind string) string {
	switch kind {
	case "agent_react":
		return mustJSON(apps.AgentParams{Steps: 8, ThinkTokens: 24, ObsTokens: 16, FinalTokens: 24})
	case "agent_codeact":
		return mustJSON(apps.AgentParams{Steps: 8, ThinkTokens: 20, ObsTokens: 12, FinalTokens: 24})
	case "agent_swarm":
		return mustJSON(apps.SwarmParams{Workers: 4, IOsPerWorker: 8, ThinkTokens: 16})
	case "fncall_agent":
		return mustJSON(apps.FnCallParams{
			NumAPIs: 8, HotAPIs: 2, SpecTokens: 256, Calls: 8, ThinkTokens: 12,
			OptCache: true, OptAsync: true, OptMask: true,
		})
	}
	panic("benchmark: unknown agent kind " + kind)
}

// completionArgs is the launch blob of the text_completion app, the one
// program pie-server and an in-process engine can both run.
func completionArgs(prompt string, maxTokens int, firstTokenAck bool) string {
	return mustJSON(apps.CompletionParams{Prompt: prompt, MaxTokens: maxTokens, FirstTokenAck: firstTokenAck})
}

// --- one session, client side ------------------------------------------------

// sessionReq is one session the load generator wants served.
type sessionReq struct {
	ID      int
	Program string
	Class   string // service class ("" when the engine registers none)
	Group   string // the benchmark's own label: which metric the session feeds
	Args    string
	Want    int           // token messages the session must deliver
	Due     time.Duration // virtual instant the launch is due
}

// sessionRec is what the client observed of one session, all in virtual time.
type sessionRec struct {
	Req      sessionReq
	Start    time.Duration // launch actually issued (>= Due)
	Launched time.Duration // Engine.Launch returned
	Tokens   []time.Duration
	Notes    []string // non-token messages ("hit", "miss", an agent's answer)
	End      time.Duration
	Err      string
	Control  int // control-layer calls (Handle.Stats)
	Infer    int // inference-layer calls
	Output   int // output tokens the program reported
}

// ok reports a session that finished and delivered every token it was asked for.
func (r *sessionRec) ok() bool { return r.Err == "" && len(r.Tokens) == r.Req.Want }

// serve runs one session from the calling sim process: launch, read every
// message until the program finishes, wait. Spans: the session root, the
// launch, and three client-track spans beside the tree.
func (e *engine) serve(req sessionReq) sessionRec {
	rec := sessionRec{Req: req, Start: e.now()}
	root := e.tr.begin("session", 0, req.ID, req.Due)
	if e.tr != nil {
		e.tr.roots[req.ID] = root
		if rec.Start > req.Due {
			e.tr.add("loadgen.late", root, req.ID, req.Due, rec.Start)
		}
	}
	h, err := e.pie.Launch(pie.LaunchSpec{Program: req.Program, Args: []string{req.Args}, Class: req.Class})
	rec.Launched = e.now()
	e.tr.add("ilm.launch", root, req.ID, rec.Start, rec.Launched)
	if err != nil {
		rec.Err, rec.End = err.Error(), rec.Launched // refused: counts as failed
		e.tr.end(root, rec.End)
		return rec
	}
	for {
		msg, err := h.Recv().Get()
		if err != nil {
			break // mailbox closed: the program finished
		}
		if msg == tokenMsg {
			rec.Tokens = append(rec.Tokens, e.now())
		} else {
			rec.Notes = append(rec.Notes, msg)
		}
	}
	drained := e.now()
	if err := h.Wait(); err != nil {
		rec.Err = err.Error()
	}
	rec.End = e.now()
	e.tick()
	rec.Control, rec.Infer, rec.Output = h.Stats()
	if e.tr != nil {
		first, last := drained, drained
		if len(rec.Tokens) > 0 {
			first, last = rec.Tokens[0], rec.Tokens[len(rec.Tokens)-1]
		}
		e.tr.add("client.first_token", 0, req.ID, rec.Launched, first)
		e.tr.add("client.stream", 0, req.ID, first, last)
		e.tr.add("client.wait", 0, req.ID, last, rec.End)
		e.tr.end(root, rec.End)
	}
	return rec
}

// --- counters ----------------------------------------------------------------

// counters is the flat snapshot of engine, replica and pool statistics the
// per-layer metrics are computed from.
type counters struct {
	GPUBusy        time.Duration
	Kernels        int
	Batches        int
	AvgBatch       float64
	MaxBatch       int
	Terminations   int
	Launches       int
	ColdLaunches   int
	Aborts         int
	ToolCalls      int
	ActiveReplicas int
	ArtifactHits   int
	ArtifactMisses int

	KVPeakPages  int
	SwapInPages  int
	SwapOutPages int
	SwapTime     time.Duration
	PoolInUse    int // KV pages in use on every replica at snapshot time
	PoolCapacity int

	ReplicasLost int
	Sheds        int
	Requeues     int
	Retries      int
	Degradations int

	Handoffs      int
	HandoffPages  int
	HandoffTime   time.Duration
	HandoffDenied int
	HandoffQueued int

	Replicas []replicaCounters
}

type replicaCounters struct {
	Role       string
	Placements int
	GPUBusyMS  float64
}

func (e *engine) counters() counters {
	st := e.pie.Stats()
	c := counters{
		GPUBusy: st.GPUBusy, Kernels: st.Kernels, Batches: st.Batches, AvgBatch: st.AvgBatch, MaxBatch: st.MaxBatch,
		Terminations: st.Terminations, Launches: st.Launches, ColdLaunches: st.ColdLaunches, Aborts: st.Aborts,
		ToolCalls: st.ToolCalls, ActiveReplicas: st.ActiveReplicas,
		ArtifactHits: st.ArtifactHits, ArtifactMisses: st.ArtifactMisses,
		KVPeakPages: st.KVPeakPages, SwapInPages: st.SwapInPages, SwapOutPages: st.SwapOutPages, SwapTime: st.SwapTime,
		ReplicasLost: st.ReplicasLost, Sheds: st.Sheds, Requeues: st.Requeues, Retries: st.Retries, Degradations: st.Degradations,
		Handoffs: st.Handoffs, HandoffPages: st.HandoffPages, HandoffTime: st.HandoffTime,
		HandoffDenied: st.HandoffDenied, HandoffQueued: st.HandoffQueued,
	}
	for _, m := range e.pie.Models() {
		inUse, capacity := e.pie.PoolStats(m)
		c.PoolInUse += inUse
		c.PoolCapacity += capacity
	}
	for _, r := range e.pie.ReplicaStats() {
		c.Replicas = append(c.Replicas, replicaCounters{Role: r.Role, Placements: r.Placements, GPUBusyMS: r.GPUBusyMS})
	}
	return c
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
