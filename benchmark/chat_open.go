package main

import (
	"time"
)

// chat_open: open-loop streaming completions on one replica. Frozen
// constants (calibrated once at the commit that added the benchmark, see
// README "Calibration record").
const (
	chatRefRate       = 64.0 // sessions per virtual second at the reference point
	chatPerSecond     = 1000 // reference-rate sessions per -seconds (about 0.6 s of host time at calibration)
	chatMinSessions   = 3000
	chatTokens        = 32
	chatPromptLo      = 20 // words
	chatPromptHi      = 60
	chatLadderSession = 1500 // sessions per ladder rate
)

// chatLadder are the fixed rates behind loadgen.max_rate_in_slo_per_s.
var chatLadder = []float64{40, 48, 56, 64, 72, 80}

var chatSLO = slo{TTFT: 55 * time.Millisecond, MeanGap: 28 * time.Millisecond}

var chatSpec = engineSpec{Replicas: 1}

// chatLoad generates n unshared streaming completions arriving as a
// Poisson process of the given rate.
func chatLoad(seed uint64, n int, rate float64) func() *load {
	return func() *load {
		r := newRNG(seed, 0xC4A7)
		due := poissonSchedule(newRNG(seed, 0xA771), n, rate)
		reqs := make([]sessionReq, n)
		for i := range reqs {
			reqs[i] = sessionReq{
				ID: i + 1, Program: "bench_chat", Want: chatTokens, Due: due[i],
				Args: chatArgs(chatParams{SID: i + 1, Prompt: prose(r, r.between(chatPromptLo, chatPromptHi)), MaxTokens: chatTokens}),
			}
		}
		ld := &load{recs: make([]sessionRec, n)}
		ld.start = func(e *engine) {
			warm(e, chatWarmup)
			openLoop(e, reqs, ld.recs)
		}
		return ld
	}
}

var chatWarmup = sessionReq{Program: "bench_chat", Want: 2, Args: chatArgs(chatParams{Prompt: "warm up", MaxTokens: 2})}

func chatOpen(cfg runConfig) (*report, error) {
	spec := chatSpec
	spec.Seed = cfg.Seed
	v := view{Meets: func(r *sessionRec) bool { return chatSLO.meets(r, 0) }}
	w := inproc{
		name:   "chat_open",
		spec:   spec,
		build:  chatLoad(cfg.Seed, cfg.scaled(chatPerSecond, chatMinSessions, 60), chatRefRate),
		view:   v,
		warmup: chatWarmup,
		extra: func(rep *report, untraced, traced *pass, l latencies) error {
			// The ladder: one fresh engine per fixed rate.
			var steps []ladderStep
			for _, rate := range chatLadder {
				p, err := runPass("chat_open ladder", spec, false, chatLoad(cfg.Seed, cfg.fixed(chatLadderSession, 40), rate))
				if err != nil {
					return err
				}
				step := ladderStep{Rate: rate, Sent: len(p.Recs)}
				var firstQ, lastQ sample
				for i := range p.Recs {
					r := &p.Recs[i]
					if v.Meets(r) {
						step.InSLO++
					}
					if len(r.Tokens) == 0 {
						continue
					}
					switch t := ms(r.Tokens[0] - r.Req.Due); {
					case i < len(p.Recs)/4:
						firstQ = append(firstQ, t)
					case i >= len(p.Recs)*3/4:
						lastQ = append(lastQ, t)
					}
				}
				step.FirstQTTFT, step.LastQTTFT = median(firstQ), median(lastQ)
				step.finish()
				steps = append(steps, step)
				rep.note("ladder: %2.0f/s sent %d in-SLO %.3f ttft first-quarter %.1f ms last-quarter %.1f ms backlog %v",
					rate, step.Sent, step.Attain, step.FirstQTTFT, step.LastQTTFT, step.Backlogging)
			}
			rep.layer("loadgen.max_rate_in_slo_per_s", knee(steps), len(steps))
			c := untraced.Counters
			bypass := c.Handoffs == 0 && c.HandoffPages == 0 && c.SwapInPages == 0 && c.SwapOutPages == 0 && c.ToolCalls == 0
			rep.check(bypass, "chat_open must bypass cluster handoff, KV swap and tools: handoffs %d swap in/out %d/%d tool calls %d",
				c.Handoffs, c.SwapInPages, c.SwapOutPages, c.ToolCalls)
			rep.note("bypass: cluster.handoffs, core.kv.swap_* and netsim.tool_calls are 0 on chat_open; model.* is not run (timing mode)")
			return nil
		},
	}
	return w.run(cfg)
}
