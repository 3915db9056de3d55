package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// passDeadline is the hard host-time limit of one pass. A pass that runs
// past it has hung (a sim process parked forever while a daemon keeps
// virtual time moving does not end on its own): dump every goroutine and
// exit non-zero rather than burn CPU until the caller's timeout.
const passDeadline = 120 * time.Second

// watchdog arms the deadline and returns the function that disarms it.
func watchdog(what string) (stop func()) {
	t := time.AfterFunc(passDeadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v; goroutines:\n", what, passDeadline)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		killChildren()
		os.Exit(3)
	})
	return func() { t.Stop() }
}

// load is one pass's generated input: the requests, where their records
// go, and the body of the load-generator sim process that issues them.
type load struct {
	recs  []sessionRec
	start func(e *engine)
}

// pass is one run of a load on a fresh engine.
type pass struct {
	Recs       []sessionRec
	Counters   counters
	Spans      []span
	Wall       time.Duration // host time of Engine.Run
	VirtualEnd time.Duration // engine clock when the run ended
	Stamps     []stamp       // host instant and event count, one per chunk of completed sessions
	Events     uint64        // sim events processed
	Mallocs    uint64        // heap objects allocated
	AllocBytes uint64
	GCPause    time.Duration
}

// runPass builds the engine, runs the load to completion on it and
// snapshots host and engine counters around the run.
func runPass(what string, spec engineSpec, traced bool, build func() *load) (*pass, error) {
	defer watchdog(what)()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ld := build()
	e := newEngine(spec, tr)
	e.chunk = len(ld.recs)/wallChunks + 1
	e.spawn("loadgen", func() { ld.start(e) })

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ev0 := simEvents()
	t0 := time.Now()
	err := e.run()
	wall := time.Since(t0)
	ev1 := simEvents()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("%s: engine run: %w", what, err)
	}
	p := &pass{
		Recs: ld.recs, Counters: e.counters(), Wall: wall, VirtualEnd: e.now(), Stamps: e.stamps,
		Events: ev1 - ev0, Mallocs: after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		GCPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	if tr != nil {
		p.Spans = tr.spans
	}
	return p, nil
}

// view says which sessions of a workload feed which end-to-end metric.
type view struct {
	TTFTGroup string // sessions whose tokens feed ttft_* and itl_* ("" = all)
	TaskGroup string // sessions whose completion feeds task_* ("" = all)
	SkipGaps  int    // leading gaps left out of itl_*
	Meets     func(r *sessionRec) bool
}

// virtualMetrics computes the seven virtual-clock end-to-end metrics of a
// pass. They depend on the generated inputs alone, never on the host.
func virtualMetrics(p *pass, v view, thinTails bool) (map[string]reading, latencies, error) {
	l := observe(p.Recs, v.TTFTGroup, v.TaskGroup, v.SkipGaps)
	out := map[string]reading{}
	for _, m := range []struct {
		name string
		s    sample
	}{{"ttft", l.TTFT}, {"itl", l.ITL}, {"task", l.Task}} {
		s := m.s.sorted()
		p99, err := tail(s, 99, m.name+"_p99_ms")
		if thinTails {
			p99, err = nearestRank(s, 99), nil // smoke sizes cannot support a p99
		}
		if err != nil {
			return nil, l, err
		}
		out[m.name+"_p50_ms"] = reading{nearestRank(s, 50), len(s)}
		out[m.name+"_p99_ms"] = reading{p99, len(s)}
	}
	for i := range p.Recs {
		if v.Meets(&p.Recs[i]) {
			l.InSLO++
		}
	}
	out["goodput_per_s"] = reading{ratio(float64(l.InSLO), l.Makespan.Seconds()), l.Sent}
	return out, l, nil
}

// sameVirtual reports the names on which two passes' virtual metrics differ.
func sameVirtual(a, b map[string]reading) []string {
	var diff []string
	for name, va := range a {
		if vb := b[name]; va != vb {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", name, va.Value, vb.Value))
		}
	}
	sort.Strings(diff)
	return diff
}

// steadyWall is the host time of a pass's measured phase at its
// lower-quartile speed: total events times the 25th-percentile host cost
// per event over the pass's chunks. On this shared two-core sandbox other
// tenants slow whole seconds of a run by 20-40 %; elapsed time carries that
// in full, while three quarters of the chunks must be disturbed before
// this reading moves. A change to the simulator's cost per event, or to
// the number of events, moves both alike. Elapsed time is reported beside
// it as sim.wall_raw_s.
func steadyWall(p *pass) (seconds float64, chunks int) {
	var perEvent sample
	for i := 1; i < len(p.Stamps); i++ {
		if ev := p.Stamps[i].events - p.Stamps[i-1].events; ev > 0 {
			perEvent = append(perEvent, p.Stamps[i].at.Sub(p.Stamps[i-1].at).Seconds()/float64(ev))
		}
	}
	if len(perEvent) < 8 {
		return p.Wall.Seconds(), len(perEvent) // smoke sizes: too few chunks to rank
	}
	return nearestRank(perEvent.sorted(), 25) * float64(p.Events), len(perEvent)
}

// hostMetrics adds the two host-clock end-to-end metrics of a pass.
func hostMetrics(rep *report, p *pass) {
	wall, chunks := steadyWall(p)
	rep.e2e("wall_s", wall, chunks)
	rep.e2e("host_allocs_per_event", ratio(float64(p.Mallocs), float64(p.Events)), int(p.Events))
}

// sessionChecks are the correctness checks every in-process pass must
// hold: every session sent is accounted for, every done session delivered
// exactly the tokens asked, no page leaked, no replica lost.
func sessionChecks(rep *report, p *pass, l latencies, exportPages int) {
	rep.Attempted, rep.Failed = l.Sent, l.Failed
	rep.check(l.Sent == l.Done+l.Failed, "sent %d != done %d + failed %d", l.Sent, l.Done, l.Failed)
	for i := range p.Recs {
		r := &p.Recs[i]
		if r.Err != "" || len(r.Tokens) != r.Req.Want {
			rep.check(false, "session %d (%s): %d of %d tokens, err %q", r.Req.ID, r.Req.Program, len(r.Tokens), r.Req.Want, r.Err)
			break // one example is enough; the count is in loadgen.failed
		}
	}
	leaked := p.Counters.PoolInUse - exportPages
	rep.check(leaked == 0, "core.kv.leaked_pages = %d (pool in use %d, live exports hold %d)", leaked, p.Counters.PoolInUse, exportPages)
	rep.check(p.Counters.ReplicasLost == 0, "cluster.replicas_lost = %d", p.Counters.ReplicasLost)
}

// layerMetrics fills the per-layer metrics every in-process workload has,
// from the untraced pass's counters and the traced pass's spans.
func layerMetrics(rep *report, untraced, traced *pass, l latencies, exportPages int) {
	c := untraced.Counters
	rep.layer("loadgen.sent", float64(l.Sent), l.Sent)
	rep.layer("loadgen.done", float64(l.Done), l.Sent)
	rep.layer("loadgen.failed", float64(l.Failed), l.Sent)
	rep.layer("loadgen.fail_share", ratio(float64(l.Failed), float64(l.Sent)), l.Sent)
	rep.layer("loadgen.slo_attain_share", ratio(float64(l.InSLO), float64(l.Sent)), l.Sent)
	rep.layer("loadgen.late_p99_ms", nearestRank(l.Late.sorted(), 99), len(l.Late))
	plain, _ := steadyWall(untraced)
	withSpans, _ := steadyWall(traced)
	rep.layer("loadgen.trace_overhead_share", (withSpans-plain)/plain, 1)
	d := newDigest()
	for i := range untraced.Recs {
		r := &untraced.Recs[i]
		d.add(fmt.Sprintf("%d:%d:%d", r.Req.ID, len(r.Tokens), r.Output))
	}
	rep.layer("loadgen.output_digest", d.value(), l.Sent)

	launch := durationsOf(traced.Spans, "ilm.launch").sorted()
	rep.layer("ilm.launch_p50_ms", nearestRank(launch, 50), len(launch))
	rep.layer("ilm.launch_p99_ms", nearestRank(launch, 99), len(launch))
	rep.layer("ilm.cold_launch_share", ratio(float64(c.ColdLaunches), float64(c.Launches)), c.Launches)
	rep.layer("ilm.control_calls_per_token", ratio(float64(l.Control), float64(l.Output)), l.Output)
	rep.layer("ilm.infer_calls_per_token", ratio(float64(l.Infer), float64(l.Output)), l.Output)
	rep.layer("ilm.requeues", float64(c.Requeues), 1)
	rep.layer("ilm.retries", float64(c.Retries), 1)
	rep.layer("ilm.aborts", float64(c.Aborts), 1)

	rep.layer("cluster.handoffs", float64(c.Handoffs), 1)
	rep.layer("cluster.handoff_pages", float64(c.HandoffPages), 1)
	rep.layer("cluster.handoff_queued_share", ratio(float64(c.HandoffQueued), float64(c.Handoffs)), c.Handoffs)
	rep.layer("cluster.handoff_denied", float64(c.HandoffDenied), 1)
	rep.layer("cluster.handoff_ms_mean", ratio(ms(c.HandoffTime), float64(c.Handoffs)), c.Handoffs)
	rep.layer("cluster.first_gap_p99_ms", nearestRank(l.FirstGap.sorted(), 99), len(l.FirstGap))
	rep.layer("cluster.replicas_lost", float64(c.ReplicasLost), 1)
	rep.layer("cluster.sheds", float64(c.Sheds), 1)
	rep.layer("cluster.degradations", float64(c.Degradations), 1)
	if len(c.Replicas) > 1 {
		skew, spread := placementSkew(c.Replicas)
		rep.layer("cluster.placement_skew", skew, len(c.Replicas))
		rep.layer("cluster.gpu_busy_spread", spread, len(c.Replicas))
	}

	steps := durationsOf(traced.Spans, "prog.step").sorted()
	rep.layer("core.sched.batches", float64(c.Batches), 1)
	rep.layer("core.sched.avg_batch", c.AvgBatch, c.Batches)
	rep.layer("core.sched.max_batch", float64(c.MaxBatch), c.Batches)
	rep.layer("core.sched.forward_wait_p50_ms", nearestRank(steps, 50), len(steps))
	rep.layer("core.sched.forward_wait_p99_ms", nearestRank(steps, 99), len(steps))
	allocs := durationsOf(traced.Spans, "prog.alloc").sorted()
	rep.layer("core.alloc_p50_us", nearestRank(allocs, 50)*1000, len(allocs))
	rep.layer("core.kv.peak_pages", float64(c.KVPeakPages), 1)
	rep.layer("core.kv.swap_in_pages", float64(c.SwapInPages), 1)
	rep.layer("core.kv.swap_out_pages", float64(c.SwapOutPages), 1)
	rep.layer("core.kv.swap_ms", ms(c.SwapTime), 1)
	rep.layer("core.kv.swap_in_per_session", ratio(float64(c.SwapInPages), float64(l.Sent)), l.Sent)
	rep.layer("core.kv.terminations", float64(c.Terminations), 1)
	rep.layer("core.kv.leaked_pages", float64(c.PoolInUse-exportPages), 1)
	rep.layer("core.artifact.hit_share", ratio(float64(c.ArtifactHits), float64(c.ArtifactHits+c.ArtifactMisses)), c.ArtifactHits+c.ArtifactMisses)

	busyReplicas := 0
	for _, r := range c.Replicas {
		if r.GPUBusyMS > 0 {
			busyReplicas++
		}
	}
	rep.layer("infer.gpu_busy_share", ratio(c.GPUBusy.Seconds(), untraced.VirtualEnd.Seconds()*float64(busyReplicas)), busyReplicas)
	rep.layer("infer.kernels_per_token", ratio(float64(c.Kernels), float64(l.Output)), l.Output)
	rep.layer("infer.kernel_ms_mean", ratio(ms(c.GPUBusy), float64(c.Kernels)), c.Kernels)
	rep.layer("infer.tokens_per_s", ratio(float64(l.Output), l.Makespan.Seconds()), l.Output)
	rep.layer("netsim.tool_calls", float64(c.ToolCalls), 1)

	rep.layer("sim.wall_raw_s", untraced.Wall.Seconds(), 1)
	rep.layer("sim.events", float64(untraced.Events), 1)
	rep.layer("sim.events_per_s", ratio(float64(untraced.Events), untraced.Wall.Seconds()), int(untraced.Events))
	rep.layer("sim.host_alloc_bytes_per_event", ratio(float64(untraced.AllocBytes), float64(untraced.Events)), int(untraced.Events))
	rep.layer("sim.gc_pause_ms", ms(untraced.GCPause), 1)

	led := buildLedger(traced.Spans)
	rep.layer("loadgen.ledger_residual_max_us", us(led.ResidualMax), led.Sessions)
	rep.note("ledger: %d sessions, self times sum to task with residual max %v, mean %v",
		led.Sessions, led.ResidualMax, time.Duration(ratio(float64(led.ResidualSum), float64(led.Sessions))))
	var names []string
	for name := range led.SelfByName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.note("ledger: self time %-18s %9.3f ms/session", name, ratio(ms(led.SelfByName[name]), float64(led.Sessions)))
	}
}

// placementSkew returns max/mean placements within a role (the worst
// role), and (max-min)/mean GPU busy time over replicas that did work.
func placementSkew(rs []replicaCounters) (skew, busySpread float64) {
	byRole := map[string][]float64{}
	var busy []float64
	for _, r := range rs {
		if r.Placements > 0 {
			byRole[r.Role] = append(byRole[r.Role], float64(r.Placements))
		}
		if r.GPUBusyMS > 0 {
			busy = append(busy, r.GPUBusyMS)
		}
	}
	for _, p := range byRole {
		s := sample(p).sorted()
		if k := ratio(s[len(s)-1], mean(s)); k > skew {
			skew = k
		}
	}
	if len(busy) > 0 {
		s := sample(busy).sorted()
		busySpread = ratio(s[len(s)-1]-s[0], mean(s))
	}
	return skew, busySpread
}

// setupTime is the median host time of setupRuns engine set-ups: build the
// engine, register every program, serve one warm-up session.
func setupTime(spec engineSpec, warmup sessionReq, runs int) (float64, error) {
	var times sample
	for i := 0; i < runs; i++ {
		stop := watchdog("setup")
		t0 := time.Now()
		e := newEngine(spec, nil)
		e.spawn("warmup", func() { warm(e, warmup) })
		err := e.run()
		times = append(times, time.Since(t0).Seconds())
		stop()
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
	}
	return median(times), nil
}

const setupRuns = 25

const wallChunks = 64
