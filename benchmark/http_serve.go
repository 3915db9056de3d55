package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// http_serve: the same greedy completions served with real tensor math two
// ways — by an in-process engine on the virtual clock (the virtual metrics
// and allocations per event), and by a pie-server child over HTTP on the
// host clock (wall_s, setup_s, and the server.* ledger). Frozen constants,
// see README.
const (
	httpServerSeed   = 42 // pie-server's default -seed: both legs load the same weights
	httpConns        = 2
	httpTokens       = 16
	httpPrompts      = 13
	httpStreamPerSec = 10  // streaming sessions per -seconds
	httpUnaryPerSec  = 30  // unary sessions per -seconds
	httpVirtPerSec   = 100 // in-process sessions per -seconds
	httpVirtMin      = 1000
	httpStatsEvery   = 50
	httpDirectRuns   = 200 // in-process text_completion sessions behind server.overhead_per_session_ms
)

var httpSLO = slo{TTFT: 100 * time.Millisecond, MeanGap: 20 * time.Millisecond}

// httpPromptSet draws the rotating prompts from the seed.
func httpPromptSet(seed uint64) []string {
	r := newRNG(seed, 0x4773)
	out := make([]string, httpPrompts)
	for i := range out {
		out[i] = prose(r, r.between(8, 40))
	}
	return out
}

// httpVirtualLoad is the in-process leg: closed-loop clients streaming
// bench_chat completions of the rotating prompts.
func httpVirtualLoad(prompts []string, n int) func() *load {
	return func() *load {
		reqs := make([]sessionReq, n)
		for i := range reqs {
			reqs[i] = sessionReq{
				ID: i + 1, Program: "bench_chat", Want: httpTokens,
				Args: chatArgs(chatParams{SID: i + 1, Prompt: prompts[i%len(prompts)], MaxTokens: httpTokens, SendText: true}),
			}
		}
		ld := &load{recs: make([]sessionRec, n)}
		ld.start = func(e *engine) {
			warm(e, chatWarmup)
			closedLoop(e, httpConns, reqs, ld.recs)
		}
		return ld
	}
}

// httpLeg is what the HTTP clients measured.
type httpLeg struct {
	Stream, Unary []httpTimes
	Stats         sample // /v1/stats round trips, ms
	Begin         time.Time
	Wall          time.Duration
	Failed        int
	FirstErr      error
	Texts         map[string]map[string]bool // prompt -> distinct completions seen
	RSSMB         float64
}

// httpDrive runs phase A (streaming) then phase B (unary) from httpConns
// keep-alive connections.
func httpDrive(s *server, prompts []string, nStream, nUnary int) *httpLeg {
	leg := &httpLeg{Texts: map[string]map[string]bool{}}
	var mu sync.Mutex
	phase := func(n int, streaming bool) {
		next := 0
		var wg sync.WaitGroup
		for c := 0; c < httpConns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cn := s.dial()
				defer cn.close()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= n {
						return
					}
					prompt := prompts[i%len(prompts)]
					var t httpTimes
					var err error
					if streaming {
						t, err = cn.stream("text_completion", completionArgs(prompt, httpTokens, true))
					} else {
						t, err = cn.unary("text_completion", completionArgs(prompt, httpTokens, false))
					}
					var statsRTT time.Duration
					var statsErr error
					if i%httpStatsEvery == 0 {
						statsRTT, statsErr = cn.stats()
					}
					mu.Lock()
					switch {
					case err == nil && t.Tokens != httpTokens:
						err = fmt.Errorf("session got %d of %d tokens", t.Tokens, httpTokens)
						fallthrough
					case err != nil:
						leg.Failed++
						if leg.FirstErr == nil {
							leg.FirstErr = err
						}
					case streaming:
						leg.Stream = append(leg.Stream, t)
					default:
						leg.Unary = append(leg.Unary, t)
					}
					if err == nil {
						if leg.Texts[prompt] == nil {
							leg.Texts[prompt] = map[string]bool{}
						}
						leg.Texts[prompt][t.Text] = true
					}
					if statsErr == nil && statsRTT > 0 {
						leg.Stats = append(leg.Stats, ms(statsRTT))
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	leg.Begin = time.Now()
	phase(nStream, true)
	phase(nUnary, false)
	leg.Wall = time.Since(leg.Begin)
	leg.RSSMB = s.rssMB()
	return leg
}

// spans renders the HTTP sessions as host-clock spans: one root per
// session with the launch, the wait for the completion and the final wait
// under it.
func (leg *httpLeg) spans() []span {
	tr := newTracer()
	sid := 0
	for _, set := range []struct {
		name string
		ts   []httpTimes
	}{{"http.stream", leg.Stream}, {"http.unary", leg.Unary}} {
		for _, t := range set.ts {
			sid++
			at := t.Begin.Sub(leg.Begin)
			root := tr.addHost(set.name, 0, sid, at, at+t.Done)
			tr.addHost("server.launch", root, sid, at, at+t.Launched)
			tr.addHost("server.first_event", root, sid, at+t.Launched, at+t.FirstEvent)
			tr.addHost("server.end_event", root, sid, at+t.FirstEvent, at+t.EndEvent)
			tr.addHost("server.wait", root, sid, at+t.EndEvent, at+t.Done)
		}
	}
	return tr.spans
}

func pick(ts []httpTimes, f func(httpTimes) time.Duration) sample {
	out := make(sample, len(ts))
	for i, t := range ts {
		out[i] = ms(f(t))
	}
	return out.sorted()
}

func httpServe(cfg runConfig) (*report, error) {
	rep := newReport("http_serve", cfg.Seed)
	prompts := httpPromptSet(cfg.Seed)
	spec := engineSpec{Seed: httpServerSeed, Full: true, Replicas: 1}
	v := view{Meets: func(r *sessionRec) bool { return httpSLO.meets(r, 0) }}

	// In-process leg: virtual metrics, allocations per event.
	build := httpVirtualLoad(prompts, cfg.scaled(httpVirtPerSec, httpVirtMin, 26))
	untraced, err := runPass("http_serve in-process pass", spec, false, build)
	if err != nil {
		return nil, err
	}
	vm, l, err := virtualMetrics(untraced, v, cfg.Smoke)
	if err != nil {
		return nil, err
	}
	sessionChecks(rep, untraced, l, 0)
	for name, val := range vm {
		rep.E2E[name] = val
	}
	rep.e2e("host_allocs_per_event", ratio(float64(untraced.Mallocs), float64(untraced.Events)), int(untraced.Events))
	direct := map[string]string{} // prompt -> the in-process engine's greedy completion
	for i := range untraced.Recs {
		r := &untraced.Recs[i]
		for _, n := range r.Notes {
			if strings.HasPrefix(n, textPrefix) {
				direct[prompts[i%len(prompts)]] = jsonSafe(strings.TrimPrefix(n, textPrefix))
			}
		}
	}

	// HTTP leg: build, set-up time, then the two phases against one child.
	tmp, err := os.MkdirTemp("", "pie-benchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	bin, buildS, err := buildServer(tmp)
	if err != nil {
		return nil, err
	}
	defer killChildren()
	var ready sample
	for i := 0; i < cfg.fixed(httpSetupRuns, 3); i++ {
		s, d, err := startServer(bin)
		if err != nil {
			return nil, err
		}
		s.stop()
		ready = append(ready, d.Seconds())
	}
	rep.e2e("setup_s", median(ready), len(ready))
	s, _, err := startServer(bin)
	if err != nil {
		return nil, err
	}
	stop := watchdog("http_serve HTTP leg")
	leg := httpDrive(s, prompts, cfg.scaled(httpStreamPerSec, 0, 6), cfg.scaled(httpUnaryPerSec, 0, 12))
	stop()
	s.stop()

	rep.Attempted += len(leg.Stream) + len(leg.Unary) + leg.Failed
	rep.Failed += leg.Failed
	rep.check(leg.Failed == 0, "%d HTTP sessions failed, first: %v", leg.Failed, leg.FirstErr)
	for prompt, texts := range leg.Texts {
		rep.check(len(texts) == 1, "prompt %q returned %d different greedy texts over HTTP", prompt, len(texts))
		for text := range texts {
			rep.check(text == direct[prompt], "prompt %q: HTTP text %q differs from the in-process engine's %q", prompt, text, direct[prompt])
		}
	}
	streamTotal := pick(leg.Stream, func(t httpTimes) time.Duration { return t.Done })
	unaryTotal := pick(leg.Unary, func(t httpTimes) time.Duration { return t.Done })
	// Host time of the two phases at their lower-quartile session cost
	// (see steadyWall): sessions x p25 latency, over the connections.
	steady := (float64(len(streamTotal))*nearestRank(streamTotal, 25) + float64(len(unaryTotal))*nearestRank(unaryTotal, 25)) / 1000 / httpConns
	rep.e2e("wall_s", steady, len(streamTotal)+len(unaryTotal))
	if !cfg.Layers {
		return rep, nil
	}

	rep.layer("loadgen.sent", float64(rep.Attempted), rep.Attempted)
	rep.layer("loadgen.done", float64(rep.Attempted-rep.Failed), rep.Attempted)
	rep.layer("loadgen.failed", float64(rep.Failed), rep.Attempted)
	rep.layer("loadgen.fail_share", ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Attempted)
	rep.layer("loadgen.build_s", buildS, 1)
	d := newDigest()
	for _, p := range prompts {
		for text := range leg.Texts[p] {
			d.add(text)
		}
	}
	rep.layer("loadgen.output_digest", d.value(), len(prompts))
	rep.layer("sim.wall_raw_s", leg.Wall.Seconds(), 1)
	rep.layer("sim.events", float64(untraced.Events), 1)
	rep.layer("sim.events_per_s", ratio(float64(untraced.Events), untraced.Wall.Seconds()), int(untraced.Events))
	rep.layer("sim.host_alloc_bytes_per_event", ratio(float64(untraced.AllocBytes), float64(untraced.Events)), int(untraced.Events))
	rep.layer("ilm.control_calls_per_token", ratio(float64(l.Control), float64(l.Output)), l.Output)
	rep.layer("ilm.infer_calls_per_token", ratio(float64(l.Infer), float64(l.Output)), l.Output)
	rep.layer("loadgen.slo_attain_share", ratio(float64(l.InSLO), float64(l.Sent)), l.Sent)

	launch := append(pick(leg.Stream, func(t httpTimes) time.Duration { return t.Launched }), pick(leg.Unary, func(t httpTimes) time.Duration { return t.Launched })...).sorted()
	rep.layer("server.launch_p50_ms", nearestRank(launch, 50), len(launch))
	rep.layer("server.launch_p90_ms", nearestRank(launch, 90), len(launch))
	recv := pick(leg.Unary, func(t httpTimes) time.Duration { return t.EndEvent - t.Launched })
	rep.layer("server.recv_p50_ms", nearestRank(recv, 50), len(recv))
	wait := pick(leg.Unary, func(t httpTimes) time.Duration { return t.Done - t.EndEvent })
	rep.layer("server.wait_p50_ms", nearestRank(wait, 50), len(wait))
	rep.layer("server.stats_p50_ms", nearestRank(leg.Stats.sorted(), 50), len(leg.Stats))
	first := pick(leg.Stream, func(t httpTimes) time.Duration { return t.FirstEvent })
	rep.layer("server.stream_first_event_p50_ms", nearestRank(first, 50), len(first))
	endLag := pick(leg.Stream, func(t httpTimes) time.Duration { return t.EndEvent - t.FirstEvent })
	rep.layer("server.stream_end_lag_p50_ms", nearestRank(endLag, 50), len(endLag))
	for _, q := range []float64{50, 90} { // a p99 would need 1000 HTTP sessions per phase
		rep.layer(fmt.Sprintf("server.stream_p%.0f_ms", q), nearestRank(streamTotal, q), len(streamTotal))
		rep.layer(fmt.Sprintf("server.unary_p%.0f_ms", q), nearestRank(unaryTotal, q), len(unaryTotal))
	}
	rep.layer("server.rss_mb", leg.RSSMB, 1)
	if cfg.TraceOut != "" {
		if err := writeChromeTrace(cfg.TraceOut, leg.spans()); err != nil {
			return nil, err
		}
	}

	// The same unary session run directly on an in-process engine: what
	// is left of the HTTP latency is the mux + Inject + JSON cost.
	directPass, err := runPass("http_serve direct pass", spec, false, func() *load {
		n := cfg.fixed(httpDirectRuns, 13)
		reqs := make([]sessionReq, n)
		for i := range reqs {
			reqs[i] = sessionReq{ID: i + 1, Program: "text_completion", Args: completionArgs(prompts[i%len(prompts)], httpTokens, false)}
		}
		ld := &load{recs: make([]sessionRec, n)}
		ld.start = func(e *engine) {
			warm(e, reqs[0])
			closedLoop(e, 1, reqs, ld.recs)
		}
		return ld
	})
	if err != nil {
		return nil, err
	}
	perSession := ms(directPass.Wall) / float64(len(directPass.Recs))
	rep.layer("server.overhead_per_session_ms", nearestRank(unaryTotal, 50)-perSession, len(unaryTotal))
	rep.note("a unary session costs %.2f ms of host time in process and %.2f ms (p50) over HTTP", perSession, nearestRank(unaryTotal, 50))

	if us, n, err := decodeStepProbe(httpServerSeed, cfg.fixed(2000, 100)); err != nil {
		return nil, err
	} else {
		rep.layer("model.decode_step_us", us, n)
	}
	mb, n := encodeProbe(cfg.Seed, cfg.fixed(200, 10))
	rep.layer("tokenizer.encode_mb_per_s", mb, n)
	if us, n, err := allowedTokensProbe(cfg.fixed(200, 10)); err != nil {
		return nil, err
	} else {
		rep.layer("grammar.allowed_tokens_us", us, n)
	}
	ns, n, err := clockProbe(cfg.Seed)
	if err != nil {
		return nil, err
	}
	rep.layer("sim.clock_probe_ns_per_event", ns, n)
	return rep, nil
}

const httpSetupRuns = 7
