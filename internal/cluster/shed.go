package cluster

import (
	"fmt"

	"pie/api"
	"pie/internal/trace"
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
}

// Degradation starts before shedding would: a launch of a Degradable
// service class admitted at degradeRatio of either watermark is capped at
// degradeOutputCap output tokens rather than served at full quality.
const (
	degradeRatio     = 0.75
	degradeOutputCap = 8
)

func (s ShedConfig) withDefaults() ShedConfig {
	if s.KVWatermark <= 0 || s.KVWatermark > 1 {
		s.KVWatermark = 0.9
	}
	if s.QueueDepth <= 0 {
		s.QueueDepth = 96
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
	own := c.class(class)
	if !own.Degradable && priority >= 0 {
		return 0, nil
	}
	kvUtil, meanDepth, serving := c.SaturationSnapshot()
	if serving == 0 {
		// No healthy serving replica right now. If a live replica exists —
		// a spare still activating, or an idle fleet the scaler drained to
		// zero — placement will revive it, so a shed here would be vacuous.
		// Shed only when the cluster genuinely has no hardware left.
		for _, r := range c.replicas {
			if r.health == HealthHealthy && !r.crashed {
				return 0, nil
			}
		}
		return 0, c.shedOne(class, kvUtil, meanDepth, fmt.Errorf("%w: no live replica", api.ErrOverloaded))
	}
	saturated := kvUtil >= c.shed.KVWatermark || meanDepth >= c.shed.QueueDepth
	nearSaturated := kvUtil >= degradeRatio*c.shed.KVWatermark ||
		meanDepth >= degradeRatio*c.shed.QueueDepth
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
			if c.class(name).Priority > own.Priority {
				atRisk, atRiskClass = true, name
			}
		}
	}
	switch {
	case own.Degradable && (nearSaturated || atRisk):
		// Graceful degradation instead of a shed: admit with a shorter
		// output cap; the session layer substitutes a cheaper model.
		c.Decide(trace.Decision{Kind: trace.Degrade, Class: class, Limit: degradeOutputCap,
			KVUtil: kvUtil, Depth: meanDepth, AtRisk: atRiskClass})
		return degradeOutputCap, nil
	case !own.Degradable && priority < 0 && saturated:
		return 0, c.shedOne(class, kvUtil, meanDepth, fmt.Errorf("%w: kv %.0f%% of watermark %.0f%%, depth %.1f of %.1f",
			api.ErrOverloaded, kvUtil*100, c.shed.KVWatermark*100, meanDepth, c.shed.QueueDepth))
	}
	return 0, nil
}

// shedOne records one hard shed and returns err, the shed's verdict.
func (c *Cluster) shedOne(class string, kvUtil, meanDepth float64, err error) error {
	c.Decide(trace.Decision{Kind: trace.Shed, Class: class, KVUtil: kvUtil, Depth: meanDepth, Err: err})
	return err
}

// SaturationSnapshot reports the aggregate admission signals (AdmitLaunch,
// tests and the /stats surface): KV utilization and mean queue depth over
// healthy serving replicas, plus that replica count.
func (c *Cluster) SaturationSnapshot() (kvUtil, meanDepth float64, serving int) {
	var kvInUse, kvCap, depth int
	for _, r := range c.replicas {
		if !r.Serving() {
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
