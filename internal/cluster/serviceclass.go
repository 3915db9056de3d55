package cluster

import (
	"sort"
	"time"

	"pie/api"
)

// Service classes and SLO tracking: the cluster keeps a registry of
// api.ServiceClass contracts and a live tracker of per-class TTFT/ITL
// samples fed by every replica controller's latency observer. The scaler
// reads recent-window attainment to decide when capacity (not just queue
// depth) is failing the traffic; Stats surface cumulative attainment.
//
// The design follows llm-d's workload-variant-autoscaler: classes carry
// latency targets and a priority, replicas carry a cost rate, and scaling
// picks the cheapest variant that meets the strictest live target.

// latWindowSize bounds the recent-sample ring per class and per variant.
const latWindowSize = 256

// defaultAttainTarget is the recent-window attainment threshold admission
// uses to flag SLO risk when no scaler config supplies one.
const defaultAttainTarget = 0.95

// minAttainSamples is the minimum recent-window population before a class's
// attainment can flag SLO risk — a near-empty window is vacuously attaining,
// and one early outlier must not trigger fleet-wide degradation.
const minAttainSamples = 8

// latWindow is a fixed-capacity ring of the most recent latency samples.
type latWindow struct {
	buf [latWindowSize]time.Duration
	n   int // samples ever observed
}

func (w *latWindow) add(d time.Duration) {
	w.buf[w.n%latWindowSize] = d
	w.n++
}

func (w *latWindow) size() int {
	if w.n > latWindowSize {
		return latWindowSize
	}
	return w.n
}

// attainment is the fraction of windowed samples at or under target;
// vacuously 1 with no samples or no target.
func (w *latWindow) attainment(target time.Duration) float64 {
	n := w.size()
	if n == 0 || target <= 0 {
		return 1
	}
	good := 0
	for i := 0; i < n; i++ {
		if w.buf[i] <= target {
			good++
		}
	}
	return float64(good) / float64(n)
}

func (w *latWindow) mean() time.Duration {
	n := w.size()
	if n == 0 {
		return 0
	}
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += w.buf[i]
	}
	return sum / time.Duration(n)
}

// classTracker holds one class's live samples and cumulative counters.
type classTracker struct {
	class api.ServiceClass

	ttftRecent latWindow
	itlRecent  latWindow

	ttftGood, ttftTotal int
	itlGood, itlTotal   int
	degradations        int
	sheds               int
}

// variantTracker holds one hardware variant's live samples, regardless of
// class — the scaler's per-variant latency estimate for cost-aware picks.
type variantTracker struct {
	ttft latWindow
	itl  latWindow
}

// sloTracker aggregates class and variant observations. All access happens
// on the engine's virtual clock, so no locking is needed and same-seed
// runs observe identical sequences.
type sloTracker struct {
	classes  map[string]*classTracker
	order    []string // class names, sorted — deterministic iteration
	variants map[string]*variantTracker
	vorder   []string
	vspeed   map[string]float64 // variant -> kernel slowdown factor
}

func newSLOTracker(classes []api.ServiceClass) *sloTracker {
	t := &sloTracker{
		classes:  make(map[string]*classTracker, len(classes)),
		variants: make(map[string]*variantTracker),
		vspeed:   make(map[string]float64),
	}
	for _, cl := range classes {
		t.classes[cl.Name] = &classTracker{class: cl}
		t.order = append(t.order, cl.Name)
	}
	sort.Strings(t.order)
	return t
}

// noteVariant registers a hardware variant and its speed factor (1.0 =
// reference device) so estimates can scale across variants.
func (t *sloTracker) noteVariant(name string, speed float64) {
	if name == "" {
		name = defaultVariant
	}
	if speed < 1 {
		speed = 1
	}
	if _, ok := t.variants[name]; !ok {
		t.variants[name] = &variantTracker{}
		t.vorder = append(t.vorder, name)
		sort.Strings(t.vorder)
	}
	t.vspeed[name] = speed
}

// observe records one completed forward pass.
func (t *sloTracker) observe(variant, class string, ttft bool, d time.Duration) {
	if variant == "" {
		variant = defaultVariant
	}
	if v := t.variants[variant]; v != nil {
		if ttft {
			v.ttft.add(d)
		} else {
			v.itl.add(d)
		}
	}
	ct := t.classes[class]
	if ct == nil {
		return
	}
	if ttft {
		ct.ttftRecent.add(d)
		ct.ttftTotal++
		if ct.class.TTFTTarget <= 0 || d <= ct.class.TTFTTarget {
			ct.ttftGood++
		}
	} else {
		ct.itlRecent.add(d)
		ct.itlTotal++
		if ct.class.ITLTarget <= 0 || d <= ct.class.ITLTarget {
			ct.itlGood++
		}
	}
}

// worstRecent returns the class (sorted-name order breaks ties) whose
// recent-window attainment is furthest below target, or "" when every
// class with a latency objective is attaining.
func (t *sloTracker) worstRecent(target float64) (string, float64) {
	worst, worstAtt := "", 1.0
	for _, name := range t.order {
		ct := t.classes[name]
		if ct.ttftRecent.size()+ct.itlRecent.size() < minAttainSamples {
			continue
		}
		att := 1.0
		if ct.class.TTFTTarget > 0 {
			att = ct.ttftRecent.attainment(ct.class.TTFTTarget)
		}
		if ct.class.ITLTarget > 0 {
			if a := ct.itlRecent.attainment(ct.class.ITLTarget); a < att {
				att = a
			}
		}
		if att < target && att < worstAtt {
			worst, worstAtt = name, att
		}
	}
	return worst, worstAtt
}

// strictestTargets returns the tightest nonzero TTFT and ITL targets over
// all registered classes (zero = no class sets one).
func (t *sloTracker) strictestTargets() (ttft, itl time.Duration) {
	for _, name := range t.order {
		cl := t.classes[name].class
		if cl.TTFTTarget > 0 && (ttft == 0 || cl.TTFTTarget < ttft) {
			ttft = cl.TTFTTarget
		}
		if cl.ITLTarget > 0 && (itl == 0 || cl.ITLTarget < itl) {
			itl = cl.ITLTarget
		}
	}
	return ttft, itl
}

// estimate projects a variant's TTFT and ITL. A variant with live samples
// answers from its own window; one without scales the fastest sampled
// variant's window by the speed-factor ratio; with no samples anywhere the
// estimate is zero (optimistic — let the cheapest variant prove itself).
func (t *sloTracker) estimate(variant string, speed float64) (ttft, itl time.Duration) {
	if variant == "" {
		variant = defaultVariant
	}
	if speed < 1 {
		speed = 1
	}
	if v := t.variants[variant]; v != nil && (v.ttft.size() > 0 || v.itl.size() > 0) {
		return v.ttft.mean(), v.itl.mean()
	}
	// Reference: the sampled variant with the lowest speed factor.
	ref := ""
	for _, name := range t.vorder {
		v := t.variants[name]
		if v.ttft.size() == 0 && v.itl.size() == 0 {
			continue
		}
		if ref == "" || t.vspeed[name] < t.vspeed[ref] {
			ref = name
		}
	}
	if ref == "" {
		return 0, 0
	}
	scale := speed / t.vspeed[ref]
	rv := t.variants[ref]
	return time.Duration(float64(rv.ttft.mean()) * scale), time.Duration(float64(rv.itl.mean()) * scale)
}

// RegisterClasses installs the service-class registry and starts live
// TTFT/ITL sampling: every replica controller gets a latency observer that
// attributes completed forward passes to the launching instance's class
// and the replica's hardware variant. Call before Engine.Run.
func (c *Cluster) RegisterClasses(classes []api.ServiceClass) {
	if len(classes) == 0 {
		return
	}
	c.slo = newSLOTracker(classes)
	for _, r := range c.replicas {
		variant := r.Variant
		c.slo.noteVariant(variant, r.speedFactor())
		r.Ctl.SetLatencyObserver(func(class string, ttft bool, d time.Duration) {
			c.slo.observe(variant, class, ttft, d)
		})
	}
}

// Classes reports the registered service classes, sorted by name.
func (c *Cluster) Classes() []api.ServiceClass {
	if c.slo == nil {
		return nil
	}
	out := make([]api.ServiceClass, 0, len(c.slo.order))
	for _, name := range c.slo.order {
		out = append(out, c.slo.classes[name].class)
	}
	return out
}

// class returns the service class registered under name; the zero class
// when there is none.
func (c *Cluster) class(name string) api.ServiceClass {
	if c.slo != nil {
		if ct := c.slo.classes[name]; ct != nil {
			return ct.class
		}
	}
	return api.ServiceClass{}
}

// ClassStat snapshots one service class's cumulative SLO attainment and
// degradation counters. The JSON shape is part of the pie-server /stats
// contract: same-seed runs marshal byte-identically.
type ClassStat struct {
	Class          string  `json:"class"`
	Priority       int     `json:"priority"`
	Degradable     bool    `json:"degradable"`
	TTFTTargetMS   float64 `json:"ttft_target_ms"`
	ITLTargetMS    float64 `json:"itl_target_ms"`
	TTFTSamples    int     `json:"ttft_samples"`
	ITLSamples     int     `json:"itl_samples"`
	TTFTAttainment float64 `json:"ttft_attainment"` // cumulative fraction within target
	ITLAttainment  float64 `json:"itl_attainment"`
	Degradations   int     `json:"degradations"` // launches admitted degraded
	Sheds          int     `json:"sheds"`        // launches hard-shed
}

// ClassStats snapshots every registered class in sorted-name order.
func (c *Cluster) ClassStats() []ClassStat {
	if c.slo == nil {
		return nil
	}
	out := make([]ClassStat, 0, len(c.slo.order))
	for _, name := range c.slo.order {
		ct := c.slo.classes[name]
		s := ClassStat{
			Class:        name,
			Priority:     ct.class.Priority,
			Degradable:   ct.class.Degradable,
			TTFTTargetMS: float64(ct.class.TTFTTarget) / float64(time.Millisecond),
			ITLTargetMS:  float64(ct.class.ITLTarget) / float64(time.Millisecond),
			TTFTSamples:  ct.ttftTotal,
			ITLSamples:   ct.itlTotal,
			Degradations: ct.degradations,
			Sheds:        ct.sheds,
		}
		s.TTFTAttainment = 1
		if ct.ttftTotal > 0 {
			s.TTFTAttainment = float64(ct.ttftGood) / float64(ct.ttftTotal)
		}
		s.ITLAttainment = 1
		if ct.itlTotal > 0 {
			s.ITLAttainment = float64(ct.itlGood) / float64(ct.itlTotal)
		}
		out = append(out, s)
	}
	return out
}
