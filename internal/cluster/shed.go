package cluster

import (
	"fmt"

	"pie/api"
)

// Saturation admission: near saturation the cluster degrades Degradable
// service classes (shorter output cap, cheaper model variant downstream)
// and sheds non-degradable best-effort launches (negative priority — the
// batch scheduler treats higher priority as better) with api.ErrOverloaded
// instead of letting them in to die and drag high-priority goodput down
// with them. Two aggregate signals gate admission, both computed over
// healthy serving replicas only, so losing replicas to faults tightens
// admission automatically.

// ShedConfig tunes the saturation guard. The zero value disables it.
type ShedConfig struct {
	Enabled bool
	// KVWatermark sheds best-effort launches when aggregate KV page
	// utilization (in-use / capacity across healthy serving replicas)
	// reaches this fraction (default 0.9).
	KVWatermark float64
	// QueueDepth sheds when mean outstanding inference calls per healthy
	// serving replica reaches it (default 96 — three times the SLO
	// scaler's QueueRef, so shedding starts only after growth has run
	// out).
	QueueDepth float64
	// DegradeRatio scales both watermarks down to the degradation
	// threshold: launches of a Degradable service class admitted past it
	// are degraded rather than served at full quality (default 0.75 —
	// degradation starts before shedding would).
	DegradeRatio float64
	// DegradeOutputCap is the max_tokens cap applied to degraded launches
	// (default 8).
	DegradeOutputCap int
}

func (s ShedConfig) withDefaults() ShedConfig {
	if s.KVWatermark <= 0 || s.KVWatermark > 1 {
		s.KVWatermark = 0.9
	}
	if s.QueueDepth <= 0 {
		s.QueueDepth = 96
	}
	if s.DegradeRatio <= 0 || s.DegradeRatio > 1 {
		s.DegradeRatio = 0.75
	}
	if s.DegradeOutputCap <= 0 {
		s.DegradeOutputCap = 8
	}
	return s
}

// EnableShedding installs the saturation guard. Call before Engine.Run.
func (c *Cluster) EnableShedding(cfg ShedConfig) {
	cfg.Enabled = true
	c.shed = cfg.withDefaults()
}

// AdmitLaunch is the admission gate the ILM consults before a launch
// enters the dispatch pipeline (the ilm.Admission contract), with the
// launch's resolved service class and effective priority. The returned
// outputCap is zero for a full-quality admission; a positive value admits
// the launch degraded — the ILM caps its output tokens and marks the
// instance for cheaper-model substitution. A typed error (ErrOverloaded)
// sheds the launch outright: only non-degradable best-effort launches
// (priority < 0) are ever hard-shed.
func (c *Cluster) AdmitLaunch(class string, priority int) (outputCap int, err error) {
	if !c.shed.Enabled {
		return 0, nil
	}
	degradable := false
	if cls, ok := c.classes[class]; ok {
		degradable = cls.Degradable
	}
	if !degradable && priority >= 0 {
		return 0, nil
	}
	var kvInUse, kvCap, depth, serving int
	for _, r := range c.replicas {
		if !r.active || r.draining || r.health != HealthHealthy {
			continue
		}
		serving++
		in, capacity := r.Ctl.KVLoad()
		kvInUse += in
		kvCap += capacity
		depth += r.Ctl.OutstandingCalls()
	}
	if serving == 0 {
		// No healthy serving replica right now. If a live replica exists —
		// a spare still activating, or an idle fleet the scaler drained to
		// zero — placement will revive it, so a shed here would be vacuous
		// (and the mean-depth computation below would divide by zero).
		// Shed only when the cluster genuinely has no hardware left.
		for _, r := range c.replicas {
			if r.health == HealthHealthy && !r.crashed {
				return 0, nil
			}
		}
		c.shedOne(class, "no live replica")
		return 0, fmt.Errorf("%w: no live replica", api.ErrOverloaded)
	}
	kvUtil := 0.0
	if kvCap > 0 {
		kvUtil = float64(kvInUse) / float64(kvCap)
	}
	meanDepth := float64(depth) / float64(serving)
	saturated := kvUtil >= c.shed.KVWatermark || meanDepth >= c.shed.QueueDepth
	nearSaturated := kvUtil >= c.shed.DegradeRatio*c.shed.KVWatermark ||
		meanDepth >= c.shed.DegradeRatio*c.shed.QueueDepth
	// SLO risk: a strictly higher-priority class is missing its latency
	// objective in the recent window. Degradable launches yield to it even
	// before the queue watermarks trip — capacity freed now is worth more
	// than tokens this launch would have produced.
	atRisk, atRiskClass := false, ""
	if c.slo != nil {
		target := defaultAttainTarget
		if c.scaler.Enabled {
			target = c.scaler.AttainTarget
		}
		if name, _ := c.slo.worstRecent(target); name != "" && name != class {
			if cls, ok := c.classes[name]; ok && cls.Priority > c.classes[class].Priority {
				atRisk, atRiskClass = true, name
			}
		}
	}
	switch {
	case degradable && (nearSaturated || atRisk):
		// Graceful degradation instead of a shed: admit with a shorter
		// output cap; the session layer substitutes a cheaper model.
		c.Degradations++
		if c.slo != nil {
			if ct := c.slo.classes[class]; ct != nil {
				ct.degradations++
			}
		}
		why := fmt.Sprintf("kv=%.0f%% depth=%.1f", kvUtil*100, meanDepth)
		if atRisk {
			why = "slo-risk=" + atRiskClass
		}
		c.logDecision("degrade: class=%s cap=%d %s", class, c.shed.DegradeOutputCap, why)
		return c.shed.DegradeOutputCap, nil
	case !degradable && priority < 0 && saturated:
		c.shedOne(class, fmt.Sprintf("kv %.0f%% of watermark %.0f%%, depth %.1f of %.1f",
			kvUtil*100, c.shed.KVWatermark*100, meanDepth, c.shed.QueueDepth))
		return 0, fmt.Errorf("%w: kv %.0f%% of watermark %.0f%%, depth %.1f of %.1f",
			api.ErrOverloaded, kvUtil*100, c.shed.KVWatermark*100, meanDepth, c.shed.QueueDepth)
	}
	return 0, nil
}

// shedOne books one hard shed against the cluster and the class.
func (c *Cluster) shedOne(class, why string) {
	c.Sheds++
	if c.slo != nil {
		if ct := c.slo.classes[class]; ct != nil {
			ct.sheds++
		}
	}
	c.logDecision("shed: class=%s %s", classLabel(class), why)
}

// classLabel names a class in log lines ("-" for unclassed launches).
func classLabel(class string) string {
	if class == "" {
		return "-"
	}
	return class
}

// SaturationSnapshot reports the aggregate admission signals (tests and
// the /stats surface): KV utilization and mean queue depth over healthy
// serving replicas, plus that replica count.
func (c *Cluster) SaturationSnapshot() (kvUtil, meanDepth float64, serving int) {
	var kvInUse, kvCap, depth int
	for _, r := range c.replicas {
		if !r.active || r.draining || r.health != HealthHealthy {
			continue
		}
		serving++
		in, capacity := r.Ctl.KVLoad()
		kvInUse += in
		kvCap += capacity
		depth += r.Ctl.OutstandingCalls()
	}
	if kvCap > 0 {
		kvUtil = float64(kvInUse) / float64(kvCap)
	}
	if serving > 0 {
		meanDepth = float64(depth) / float64(serving)
	}
	return kvUtil, meanDepth, serving
}
