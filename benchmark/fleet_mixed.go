package main

import (
	"fmt"
	"runtime"
	"time"
)

// fleet_mixed: open-loop interactive and batch traffic on six replicas
// split into prefill and decode roles. Frozen constants, see README.
const (
	fleetReplicas      = 6
	fleetPrefill       = 2
	fleetHandoffBudget = 4
	fleetRate          = 100.0 // sessions per virtual second
	fleetPerSecond     = 500   // sessions per -seconds (about 0.6 s of host time at calibration)
	fleetMinSessions   = 4000  // 30 % batch: >= 1200 task samples
	fleetInteractive   = 0.7
	fleetPrefixes      = 16
	fleetPrefixWords   = 200
	fleetIntTokens     = 24
	fleetBatchTokens   = 64
)

var (
	fleetIntSLO   = slo{TTFT: 62 * time.Millisecond, MeanGap: 20 * time.Millisecond}
	fleetBatchSLO = slo{Task: 1100 * time.Millisecond}
)

var fleetSpec = engineSpec{
	Replicas: fleetReplicas, Prefill: fleetPrefill, HandoffBudget: fleetHandoffBudget,
	KVAffinity: true, Classes: true, Health: true,
}

func fleetMeets(r *sessionRec) bool {
	if r.Req.Group == classInteractive {
		return fleetIntSLO.meets(r, 0)
	}
	return fleetBatchSLO.meets(r, 0)
}

// fleetPrefix is one of the shared system prompts; the text depends on the
// seed and the index only, so every session naming it shares its KV.
func fleetPrefix(seed uint64, i int) string {
	return prose(newRNG(seed, 0x5157+uint64(i)), fleetPrefixWords)
}

func fleetLoad(seed uint64, n int) func() *load {
	return func() *load {
		r := newRNG(seed, 0xF1EE)
		due := poissonSchedule(newRNG(seed, 0xF1A7), n, fleetRate)
		prefixes := make([]string, fleetPrefixes)
		for i := range prefixes {
			prefixes[i] = fleetPrefix(seed, i)
		}
		reqs := make([]sessionReq, n)
		for i := range reqs {
			id := i + 1
			if r.float() < fleetInteractive {
				k := int(r.next() % fleetPrefixes)
				reqs[i] = sessionReq{
					ID: id, Program: "bench_chat", Class: classInteractive, Group: classInteractive, Want: fleetIntTokens, Due: due[i],
					Args: chatArgs(chatParams{
						SID: id, Prefix: prefixes[k], CacheKey: fmt.Sprintf("sys-prefix:%d", k),
						Prompt: prose(r, r.between(8, 24)), MaxTokens: fleetIntTokens,
					}),
				}
			} else {
				reqs[i] = sessionReq{
					ID: id, Program: "bench_chat", Class: classBatch, Group: classBatch, Want: fleetBatchTokens, Due: due[i],
					Args: chatArgs(chatParams{SID: id, Prompt: prose(r, r.between(200, 400)), MaxTokens: fleetBatchTokens}),
				}
			}
		}
		ld := &load{recs: make([]sessionRec, n)}
		ld.start = func(e *engine) {
			warm(e, fleetWarmup)
			openLoop(e, reqs, ld.recs)
		}
		return ld
	}
}

var fleetWarmup = sessionReq{Program: "bench_chat", Class: classBatch, Want: 2, Args: chatArgs(chatParams{Prompt: "warm up", MaxTokens: 2})}

// fleetExportPages counts the pages the shared prefixes still hold: every
// session that answered "miss" exported its prefix's aligned pages.
func fleetExportPages(p *pass) int {
	pages := 0
	for i := range p.Recs {
		for _, n := range p.Recs[i].Notes {
			if n == "miss" {
				pages += fleetPrefixPages
			}
		}
	}
	return pages
}

// fleetPrefixPages is what one exported prefix holds: a 200-word prefix
// tokenises to 200-odd tokens, of which 12 whole 16-token pages are
// shareable. If that stops being true the leaked-pages check fails.
const fleetPrefixPages = 12

var fleetView = view{TTFTGroup: classInteractive, TaskGroup: classBatch, Meets: fleetMeets}

func fleetMixed(cfg runConfig) (*report, error) {
	spec := fleetSpec
	spec.Seed = cfg.Seed
	build := fleetLoad(cfg.Seed, cfg.scaled(fleetPerSecond, fleetMinSessions, 80))
	w := inproc{
		name:        "fleet_mixed",
		spec:        spec,
		build:       build,
		view:        fleetView,
		warmup:      fleetWarmup,
		exportPages: fleetExportPages,
		extra: func(rep *report, untraced, traced *pass, l latencies) error {
			keyed, hits := 0, 0
			for i := range untraced.Recs {
				r := &untraced.Recs[i]
				if r.Req.Group != classInteractive {
					continue
				}
				keyed++
				for _, n := range r.Notes {
					if n == "hit" {
						hits++
					}
				}
			}
			rep.layer("cluster.prefix_hit_share", ratio(float64(hits), float64(keyed)), keyed)
			c := untraced.Counters
			rep.check(cfg.Smoke || c.Handoffs > 0, "fleet_mixed must hand sessions off: %d handoffs", c.Handoffs)
			rep.check(c.SwapInPages == 0 && c.ToolCalls == 0, "fleet_mixed must bypass swap and tools: %d pages in, %d tool calls", c.SwapInPages, c.ToolCalls)
			// One more untraced pass on a single OS thread: today's shared
			// clock gains nothing from a second core, and this is where a
			// multi-core engine would show.
			prev := runtime.GOMAXPROCS(1)
			p1, err := runPass("fleet_mixed GOMAXPROCS=1 pass", spec, false, build)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return err
			}
			wallP1, chunks := steadyWall(p1)
			rep.layer("sim.wall_s_p1", wallP1, chunks)
			vm1, _, err := virtualMetrics(p1, fleetView, cfg.Smoke)
			if err != nil {
				return err
			}
			diff := sameVirtual(vm1, rep.E2E)
			rep.check(len(diff) == 0, "GOMAXPROCS=1 changed virtual metrics: %v", diff)
			wallPN, _ := steadyWall(untraced)
			rep.note("steady wall at GOMAXPROCS %d: %.2fs, at GOMAXPROCS 1: %.2fs", prev, wallPN, wallP1)
			return nil
		},
	}
	return w.run(cfg)
}
