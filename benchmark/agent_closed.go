package main

import (
	"time"
)

// agent_closed: closed-loop agents (the paper's Fig 6/7 programs) sharing
// one replica with closed-loop streaming chat users. Frozen constants, see
// README "Calibration record".
const (
	agentChatUsers  = 8
	agentPerSecond  = 100 // agents per -seconds (with two chat sessions each, about 0.7 s of host time at calibration)
	agentMin        = 1000
	agentChatPerAgt = 2 // chat sessions generated per agent, so both populations drain together
	agentChatTokens = 32
	agentRTT        = 25 * time.Millisecond // client link incl. API-server handling (internal/eval)
	groupAgent      = "agent"
	groupChat       = "chat"
)

// agentFacts is what the benchmark knows of each agent kind. Unloaded is
// its task latency alone on an idle engine (concurrency 1), measured once
// at calibration; the SLO is twice that. Calls is how many tool calls one
// agent makes and Serial how many of them it waits for one after another:
// a swarm's four workers wait in parallel, and the function-calling agent
// fires and forgets all but its last call.
var agentFacts = map[string]struct {
	Unloaded      time.Duration
	Calls, Serial int
	Tool          string
}{
	"agent_react":   {2903 * time.Millisecond, 8, 8, "search.api"},
	"agent_codeact": {2855 * time.Millisecond, 8, 8, "code.exec"},
	"agent_swarm":   {2573 * time.Millisecond, 32, 8, "search.api"},
	"fncall_agent":  {1424 * time.Millisecond, 8, 1, "fn.api"},
}

// agentExportPages is what the function-calling agents' two hot API specs
// (256 tokens each, 16-token pages) keep exported after the run.
const agentExportPages = 2 * 256 / 16

var agentChatSLO = slo{TTFT: 75 * time.Millisecond, MeanGap: 30 * time.Millisecond}

var agentClients = 22

var agentSpec = engineSpec{Replicas: 1, ClientRTT: agentRTT}

func agentMeets(r *sessionRec) bool {
	if r.Req.Group == groupChat {
		return agentChatSLO.meets(r, 0)
	}
	return slo{Task: 2 * agentFacts[r.Req.Program].Unloaded}.meets(r, 0)
}

func agentWarmups() []sessionReq {
	out := []sessionReq{chatWarmup}
	for _, kind := range agentKinds {
		out = append(out, sessionReq{Program: kind, Args: agentArgs(kind)})
	}
	return out
}

// agentLoad draws nAgents agents by seed from the four kinds, plus chat
// sessions for the streaming users.
func agentLoad(seed uint64, nAgents int) func() *load {
	return func() *load {
		r := newRNG(seed, 0xA6E7)
		agents := make([]sessionReq, nAgents)
		for i := range agents {
			kind := agentKinds[r.next()%uint64(len(agentKinds))]
			agents[i] = sessionReq{ID: i + 1, Program: kind, Group: groupAgent, Args: agentArgs(kind)}
		}
		chats := make([]sessionReq, nAgents*agentChatPerAgt)
		for i := range chats {
			id := nAgents + i + 1
			chats[i] = sessionReq{
				ID: id, Program: "bench_chat", Group: groupChat, Want: agentChatTokens,
				Args: chatArgs(chatParams{SID: id, Prompt: prose(r, r.between(chatPromptLo, chatPromptHi)), MaxTokens: agentChatTokens}),
			}
		}
		ld := &load{recs: make([]sessionRec, len(agents)+len(chats))}
		ld.start = func(e *engine) {
			warm(e, agentWarmups()...)
			closedLoop(e, agentClients, agents, ld.recs[:len(agents)])
			closedLoop(e, agentChatUsers, chats, ld.recs[len(agents):])
		}
		return ld
	}
}

func agentClosed(cfg runConfig) (*report, error) {
	spec := agentSpec
	spec.Seed = cfg.Seed
	w := inproc{
		name:        "agent_closed",
		spec:        spec,
		build:       agentLoad(cfg.Seed, cfg.scaled(agentPerSecond, agentMin, 16)),
		view:        view{TTFTGroup: groupChat, TaskGroup: groupAgent, Meets: agentMeets},
		warmup:      sessionReq{Program: "agent_react", Args: agentArgs("agent_react")},
		exportPages: func(*pass) int { return agentExportPages },
		extra: func(rep *report, untraced, traced *pass, l latencies) error {
			// Tool time is the floor under agent latency no engine change removes.
			calls := 0
			var toolWait, taskSum time.Duration
			for _, kind := range agentKinds {
				calls += agentFacts[kind].Calls // the warm-up agent of each kind
			}
			for i := range untraced.Recs {
				r := &untraced.Recs[i]
				if r.Req.Group != groupAgent {
					continue
				}
				f := agentFacts[r.Req.Program]
				calls += f.Calls
				toolWait += time.Duration(f.Serial) * toolLatency[f.Tool]
				taskSum += r.End - r.Req.Due
			}
			rep.check(untraced.Counters.ToolCalls == calls, "netsim.tool_calls = %d, the agents sent imply %d", untraced.Counters.ToolCalls, calls)
			rep.layer("netsim.tool_wait_share", ratio(toolWait.Seconds(), taskSum.Seconds()), l.Sent)
			c := untraced.Counters
			rep.check(c.Handoffs == 0 && c.SwapInPages == 0, "agent_closed must bypass handoff and swap: %d handoffs, %d pages swapped in", c.Handoffs, c.SwapInPages)
			for _, kind := range agentKinds {
				var s sample
				for i := range untraced.Recs {
					if r := &untraced.Recs[i]; r.Req.Program == kind && r.ok() {
						s = append(s, ms(r.End-r.Req.Due))
					}
				}
				rep.note("%-14s n=%d task p50 %.0f ms (unloaded %v, limit %v)", kind, len(s), median(s), agentFacts[kind].Unloaded, 2*agentFacts[kind].Unloaded)
			}
			return nil
		},
	}
	return w.run(cfg)
}
