package main

import (
	"fmt"
)

// runConfig is one invocation's settings.
type runConfig struct {
	Seed     uint64
	Seconds  int    // sizes the measured phase: work is fixed per (seed, seconds), never cut by the host clock
	Layers   bool   // also run the traced pass and report per-layer metrics
	Smoke    bool   // tiny sizes for tests: thin tails allowed, calibration checks off
	TraceOut string // write the traced pass's spans here as Chrome/Perfetto JSON
}

// scaled sizes a session count from -seconds. perSecond is calibrated so
// that the count takes about Seconds of host time at the commit that
// froze it; floor keeps every p99 supported by >= 1000 samples.
func (c runConfig) scaled(perSecond, floor, smoke int) int {
	if c.Smoke {
		return smoke
	}
	if n := perSecond * c.Seconds; n > floor {
		return n
	}
	return floor
}

// fixed is a size that does not scale with -seconds.
func (c runConfig) fixed(full, smoke int) int {
	if c.Smoke {
		return smoke
	}
	return full
}

// inproc is a workload served by an in-process engine on the virtual clock.
type inproc struct {
	name   string
	spec   engineSpec
	build  func() *load // generates the inputs afresh for each pass
	view   view
	warmup sessionReq // the session setup_s serves once per set-up
	// exportPages is how many KV pages live exports legitimately still
	// hold when the pass ends.
	exportPages func(p *pass) int
	// extra adds the workload's own per-layer metrics and checks.
	extra func(rep *report, untraced, traced *pass, l latencies) error
}

func (w inproc) run(cfg runConfig) (*report, error) {
	rep := newReport(w.name, cfg.Seed)
	untraced, err := runPass(w.name+" untraced pass", w.spec, false, w.build)
	if err != nil {
		return nil, err
	}
	vm, l, err := virtualMetrics(untraced, w.view, cfg.Smoke)
	if err != nil {
		return nil, err
	}
	held := 0
	if w.exportPages != nil {
		held = w.exportPages(untraced)
	}
	sessionChecks(rep, untraced, l, held)
	for name, v := range vm {
		rep.E2E[name] = v
	}
	hostMetrics(rep, untraced)
	runs := cfg.fixed(setupRuns, 3)
	setup, err := setupTime(w.spec, w.warmup, runs)
	if err != nil {
		return nil, err
	}
	rep.e2e("setup_s", setup, runs)
	if !cfg.Layers {
		return rep, nil
	}

	traced, err := runPass(w.name+" traced pass", w.spec, true, w.build)
	if err != nil {
		return nil, err
	}
	vmTraced, _, err := virtualMetrics(traced, w.view, cfg.Smoke)
	if err != nil {
		return nil, err
	}
	diff := sameVirtual(vm, vmTraced)
	rep.check(len(diff) == 0, "traced pass changed virtual metrics: %v", diff)
	layerMetrics(rep, untraced, traced, l, held)
	ns, n, err := clockProbe(cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("clock probe: %w", err)
	}
	rep.layer("sim.clock_probe_ns_per_event", ns, n)
	if w.extra != nil {
		if err := w.extra(rep, untraced, traced, l); err != nil {
			return nil, err
		}
	}
	if cfg.TraceOut != "" {
		if err := writeChromeTrace(cfg.TraceOut, traced.Spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
