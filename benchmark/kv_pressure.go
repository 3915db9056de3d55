package main

import (
	"time"
)

// kv_pressure: closed-loop sessions whose combined KV demand is twice the
// device pool, so prefill allocations evict cold pages to the host tier
// and decode faults them back. Frozen constants, see README.
const (
	kvDevicePages = 64
	kvPagesMax    = 8 // a session holds 6..8 pages
	kvPagesMin    = 6
	kvThinkMS     = 60 // mean; a session thinks 40..80 ms
	kvThinkSpan   = 20
	kvDecode      = 8 // mean; a session decodes 6..10 tokens
	kvDecodeSpan  = 2
	// 16 clients x 8 pages would be exactly device + host capacity (2.0x the
	// device pool). At 14..16 clients, concurrent forwards pin the whole
	// device tier and a few sessions per 10^4 fail "resource pool exhausted"
	// after the fault-in backoff; past 16 every client parks in allocation
	// forever (sim deadlock). 12 clients (1.5x) swap steadily and never fail.
	kvClients     = 12
	kvPerSecond   = 4500 // sessions per -seconds (about 0.6 s of host time at calibration)
	kvMinSessions = 1500
)

var kvSLO = slo{TTFT: 65 * time.Millisecond, Task: 280 * time.Millisecond}

var kvSpec = engineSpec{Replicas: 1, KVPages: kvDevicePages, HostKVRatio: 1.0}

func kvReq(id, pages, thinkMS, decode int) sessionReq {
	return sessionReq{
		ID: id, Program: "bench_kv_hold", Want: 1 + decode,
		Args: kvHoldArgs(kvHoldParams{SID: id, Pages: pages, ThinkMS: thinkMS, Decode: decode}),
	}
}

var kvWarmup = kvReq(0, kvPagesMax, kvThinkMS, kvDecode)

func kvLoad(seed uint64, n int) func() *load {
	return func() *load {
		r := newRNG(seed, 0x4B56)
		reqs := make([]sessionReq, n)
		for i := range reqs {
			reqs[i] = kvReq(i+1, r.between(kvPagesMin, kvPagesMax), r.between(kvThinkMS-kvThinkSpan, kvThinkMS+kvThinkSpan), r.between(kvDecode-kvDecodeSpan, kvDecode+kvDecodeSpan))
		}
		ld := &load{recs: make([]sessionRec, n)}
		ld.start = func(e *engine) {
			warm(e, kvWarmup)
			closedLoop(e, kvClients, reqs, ld.recs)
		}
		return ld
	}
}

func kvPressure(cfg runConfig) (*report, error) {
	spec := kvSpec
	spec.Seed = cfg.Seed
	w := inproc{
		name:   "kv_pressure",
		spec:   spec,
		build:  kvLoad(cfg.Seed, cfg.scaled(kvPerSecond, kvMinSessions, 48)),
		view:   view{SkipGaps: 1, Meets: func(r *sessionRec) bool { return kvSLO.meets(r, 1) }},
		warmup: kvWarmup,
		extra: func(rep *report, untraced, traced *pass, l latencies) error {
			c := untraced.Counters
			rep.check(cfg.Smoke || c.SwapOutPages > 0 && c.SwapInPages > 0, "kv_pressure must swap: %d pages out, %d in", c.SwapOutPages, c.SwapInPages)
			rep.check(c.Handoffs == 0 && c.ToolCalls == 0, "kv_pressure must bypass handoff and tools: %d handoffs, %d tool calls", c.Handoffs, c.ToolCalls)
			rep.note("page demand %d clients x %d..%d pages = up to %.2fx the %d-page device pool; peak live pages %d", kvClients, kvPagesMin, kvPagesMax,
				float64(kvClients*kvPagesMax)/kvDevicePages, kvDevicePages, c.KVPeakPages)
			return nil
		},
	}
	return w.run(cfg)
}
