package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric the benchmark reports. Clock is "v" (virtual:
// what a served session experiences; repeats exactly for a seed), "h"
// (host: what the simulator and pie-server cost us; noisy) or "-" (a count
// or ratio of counts). A name never changes clock between workloads.
type metricDef struct {
	Name  string
	Unit  string
	Clock string
	Lower bool // lower is better
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (--trace 0).
var endToEnd = []metricDef{
	{"ttft_p50_ms", "ms", "v", true},
	{"ttft_p99_ms", "ms", "v", true},
	{"itl_p50_ms", "ms", "v", true},
	{"itl_p99_ms", "ms", "v", true},
	{"task_p50_ms", "ms", "v", true},
	{"task_p99_ms", "ms", "v", true},
	{"goodput_per_s", "1/s", "v", false},
	{"wall_s", "s", "h", true},
	{"host_allocs_per_event", "count", "h", true},
	{"setup_s", "s", "h", true},
}

// perLayer are the metrics of single layers (--trace 1). A metric whose
// layer a workload bypasses reads 0 there; that is the bypass prediction
// made checkable.
var perLayer = []metricDef{
	{"loadgen.sent", "count", "-", false},
	{"loadgen.done", "count", "-", false},
	{"loadgen.failed", "count", "-", true},
	{"loadgen.fail_share", "ratio", "-", true},
	{"loadgen.slo_attain_share", "ratio", "v", false},
	{"loadgen.late_p99_ms", "ms", "v", true},
	{"loadgen.max_rate_in_slo_per_s", "1/s", "v", false},
	{"loadgen.trace_overhead_share", "ratio", "h", true},
	{"loadgen.ledger_residual_max_us", "us", "v", true},
	{"loadgen.build_s", "s", "h", true},
	{"loadgen.output_digest", "count", "-", false},

	{"ilm.launch_p50_ms", "ms", "v", true},
	{"ilm.launch_p99_ms", "ms", "v", true},
	{"ilm.cold_launch_share", "ratio", "-", true},
	{"ilm.control_calls_per_token", "count", "-", true},
	{"ilm.infer_calls_per_token", "count", "-", true},
	{"ilm.requeues", "count", "-", true},
	{"ilm.retries", "count", "-", true},
	{"ilm.aborts", "count", "-", true},

	{"cluster.prefix_hit_share", "ratio", "-", false},
	{"cluster.placement_skew", "ratio", "-", true},
	{"cluster.gpu_busy_spread", "ratio", "v", true},
	{"cluster.handoffs", "count", "-", false},
	{"cluster.handoff_pages", "count", "-", true},
	{"cluster.handoff_queued_share", "ratio", "-", true},
	{"cluster.handoff_denied", "count", "-", true},
	{"cluster.handoff_ms_mean", "ms", "v", true},
	{"cluster.first_gap_p99_ms", "ms", "v", true},
	{"cluster.replicas_lost", "count", "-", true},
	{"cluster.sheds", "count", "-", true},
	{"cluster.degradations", "count", "-", true},

	{"core.sched.batches", "count", "-", true},
	{"core.sched.avg_batch", "count", "-", false},
	{"core.sched.max_batch", "count", "-", false},
	{"core.sched.forward_wait_p50_ms", "ms", "v", true},
	{"core.sched.forward_wait_p99_ms", "ms", "v", true},
	{"core.alloc_p50_us", "us", "v", true},
	{"core.kv.peak_pages", "count", "-", true},
	{"core.kv.swap_in_pages", "count", "-", true},
	{"core.kv.swap_out_pages", "count", "-", true},
	{"core.kv.swap_ms", "ms", "v", true},
	{"core.kv.swap_in_per_session", "count", "-", true},
	{"core.kv.terminations", "count", "-", true},
	{"core.kv.leaked_pages", "count", "-", true},
	{"core.artifact.hit_share", "ratio", "-", false},

	{"infer.gpu_busy_share", "ratio", "v", false},
	{"infer.kernels_per_token", "count", "-", true},
	{"infer.kernel_ms_mean", "ms", "v", true},
	{"infer.tokens_per_s", "1/s", "v", false},

	{"netsim.tool_calls", "count", "-", true},
	{"netsim.tool_wait_share", "ratio", "v", true},

	{"sim.wall_raw_s", "s", "h", true},
	{"sim.events", "count", "-", true},
	{"sim.events_per_s", "1/s", "h", false},
	{"sim.host_alloc_bytes_per_event", "count", "h", true},
	{"sim.gc_pause_ms", "ms", "h", true},
	{"sim.wall_s_p1", "s", "h", true},
	{"sim.clock_probe_ns_per_event", "ns", "h", true},

	{"model.decode_step_us", "us", "h", true},
	{"tokenizer.encode_mb_per_s", "MB/s", "h", false},
	{"grammar.allowed_tokens_us", "us", "h", true},

	{"server.launch_p50_ms", "ms", "h", true},
	{"server.launch_p90_ms", "ms", "h", true},
	{"server.recv_p50_ms", "ms", "h", true},
	{"server.wait_p50_ms", "ms", "h", true},
	{"server.stats_p50_ms", "ms", "h", true},
	{"server.stream_first_event_p50_ms", "ms", "h", true},
	{"server.stream_end_lag_p50_ms", "ms", "h", true},
	{"server.stream_p50_ms", "ms", "h", true},
	{"server.stream_p90_ms", "ms", "h", true},
	{"server.unary_p50_ms", "ms", "h", true},
	{"server.unary_p90_ms", "ms", "h", true},
	{"server.rss_mb", "MB", "h", true},
	{"server.overhead_per_session_ms", "ms", "h", true},
}

// reading is one measured value with the number of samples behind it.
type reading struct {
	Value float64
	N     int
}

// report is everything one run of one workload measured.
type report struct {
	Workload  string
	Seed      uint64
	Attempted int
	Failed    int
	E2E       map[string]reading
	Layer     map[string]reading
	Checks    []string // correctness checks that failed
	Notes     []string // printed findings: bypass predictions, calibration
}

func newReport(workload string, seed uint64) *report {
	return &report{Workload: workload, Seed: seed, E2E: map[string]reading{}, Layer: map[string]reading{}}
}

func (r *report) e2e(name string, v float64, n int)   { r.E2E[name] = reading{v, n} }
func (r *report) layer(name string, v float64, n int) { r.Layer[name] = reading{v, n} }

func (r *report) check(ok bool, format string, args ...interface{}) {
	if !ok {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.Checks) == 0 }

// validate checks the report against the metric registry: no unknown names,
// and every end-to-end metric present and non-zero (a relative regression
// bound means nothing on a zero).
func (r *report) validate(wantE2E, wantLayer bool) {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.Name] = true
		if v, ok := r.E2E[d.Name]; wantE2E && (!ok || v.Value == 0) {
			r.check(false, "end-to-end metric %s missing or zero", d.Name)
		}
	}
	for _, d := range perLayer {
		known[d.Name] = true
		if _, ok := r.Layer[d.Name]; wantLayer && !ok {
			r.layer(d.Name, 0, 0) // the workload bypasses this layer
		}
	}
	var unknown []string
	for name := range r.E2E {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	for name := range r.Layer {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	r.check(len(unknown) == 0, "metrics not in the registry: %v", unknown)
}
