package eval

import (
	"fmt"
	"strings"
	"time"

	"pie"
	"pie/apps"
	"pie/internal/metrics"
)

// Cluster scaling experiment (beyond the paper): the engine fronts N
// backend replicas — each a full serving stack with its own device,
// scheduler, and KV pools — behind the cluster router. Three questions:
//
//  1. Scaling: weak-scaling batch completion (16 concurrent clients per
//     replica) swept N=1..8 under least-outstanding-tokens placement.
//     Aggregate tokens/sec must grow monotonically with N.
//  2. Affinity: a prefix-caching workload with 8 hot shared prefixes,
//     round-robin versus KV-affinity placement at N=4. Affinity keeps
//     every key on one replica, so each prefix prefills once instead of
//     once per replica.
//  3. Autoscaling: the same batch load against min=1/max=8 bounds; the
//     queue-depth autoscaler grows the active set under load and drains
//     it back afterward.
//
// Everything runs on virtual clocks: same-seed runs produce byte-identical
// results, including the per-replica stats.

// Cluster sweep workload shape.
const (
	clusterSweepMaxN     = 8
	clusterConcPerRep    = 16 // weak scaling: concurrent clients per replica
	clusterMaxTokens     = 24
	clusterPrefixKeys    = 8
	clusterPrefixConc    = 16
	clusterAutoConc      = 64
	clusterAutoMaxTokens = 16
)

// ClusterPoint is one measured cluster run. The batch sweep fills the
// token-oriented metrics; the request-oriented affinity legs fill
// ReqPerSec/MeanLatency instead.
type ClusterPoint struct {
	Replicas     int
	Concurrency  int
	Done         int
	Failures     int
	Tokens       int
	Makespan     time.Duration
	TokensPerSec float64
	TTFT         time.Duration // mean time to first token
	TPOT         time.Duration // mean time per output token after the first
	ReqPerSec    float64       // affinity legs: completed requests per second
	MeanLatency  time.Duration // affinity legs: mean end-to-end request latency
	PerReplica   []metrics.ReplicaStats
}

// ClusterAutoPoint is the autoscaling run with its scaling trajectory.
type ClusterAutoPoint struct {
	ClusterPoint
	ScaleUps    int
	DrainStart  int
	DrainDone   int
	FinalActive int
}

// ClusterResult holds the full experiment.
type ClusterResult struct {
	Sweep      []ClusterPoint // N = 1..clusterSweepMaxN, least-loaded placement
	AffinityRR ClusterPoint   // prefix workload, round-robin
	AffinityKV ClusterPoint   // prefix workload, kv-affinity
	Auto       ClusterAutoPoint
}

// ClusterSweep runs the full cluster experiment. Every leg builds an
// independent engine on a fresh virtual clock, so legs fan out across
// workers with results in index-addressed slots.
func ClusterSweep(o Options) ClusterResult {
	var out ClusterResult
	out.Sweep = make([]ClusterPoint, clusterSweepMaxN)
	rounds := o.scale(6, 3)
	legs := clusterSweepMaxN + 3
	parallelFor(legs, func(i int) {
		switch {
		case i < clusterSweepMaxN:
			n := i + 1
			conc := clusterConcPerRep * n
			e := newPieEngine(o.seed(), func(c *pie.Config) {
				c.Replicas = n
				c.Placement = pie.PlaceLeastLoaded
			})
			out.Sweep[i] = runClusterBatch(e, n, conc, conc*rounds, clusterMaxTokens)
		case i == clusterSweepMaxN:
			out.AffinityRR = runClusterPrefix(o, pie.PlaceRoundRobin)
		case i == clusterSweepMaxN+1:
			out.AffinityKV = runClusterPrefix(o, pie.PlaceKVAffinity)
		default:
			out.Auto = runClusterAuto(o)
		}
	})
	return out
}

// runClusterBatch drives the weak-scaling batch-completion workload and
// measures TTFT/TPOT per task from the first-token ack.
func runClusterBatch(e *pie.Engine, n, conc, total, maxTokens int) ClusterPoint {
	params := marshalParams(apps.CompletionParams{
		Prompt:        "The serving system dispatches requests across replicas",
		MaxTokens:     maxTokens,
		FirstTokenAck: true,
	})
	p := ClusterPoint{Replicas: n, Concurrency: conc}
	var ttft, tpot metrics.Series
	spec := pie.Spec("text_completion", params)
	_, p.Makespan = runLoad(e, "cluster batch", spec, 0, loadClass{
		name: "client", clients: conc, tasks: total, ack: true,
		spec: func(int) pie.LaunchSpec { return spec },
		done: func(o outcome) {
			if o.First > 0 {
				ttft.Add(o.First - o.T0)
			}
			if o.Err != nil {
				p.Failures++
				return
			}
			_, _, tok := o.H.Stats()
			if tok > 1 && o.First > 0 {
				tpot.Add((o.End - o.First) / time.Duration(tok-1))
			}
			p.Tokens += tok
			p.Done++
		},
	})
	p.TokensPerSec = metrics.Throughput(p.Tokens, p.Makespan)
	p.TTFT, p.TPOT = ttft.Mean(), tpot.Mean()
	p.PerReplica = e.ReplicaStats()
	return p
}

// runClusterPrefix drives the shared-prefix workload: tasks cycle over
// clusterPrefixKeys hot prefixes, each tagged with the cache_key the
// router's affinity policy sticks to.
func runClusterPrefix(o Options, placement pie.PlacementPolicy) ClusterPoint {
	const n = 4
	total := o.scale(128, 48)
	e := newPieEngine(o.seed(), func(c *pie.Config) {
		c.Replicas = n
		c.Placement = placement
	})
	prefix := strings.Repeat("shared corpus context segment ", 48)
	paramsFor := func(task int) string {
		// Hash the task index so the key sequence doesn't alias with
		// round-robin's placement cycle (a periodic key pattern would give
		// round-robin accidental affinity).
		key := int((uint64(task)*2654435761)>>16) % clusterPrefixKeys
		return marshalParams(apps.PrefixCachingParams{
			SharedPrefix: prefix + fmt.Sprint(key),
			Prompt:       fmt.Sprintf("query %d", task),
			MaxTokens:    8,
			CacheKey:     fmt.Sprintf("sweep-prefix:%d", key),
		})
	}
	res := runPieLoad(e, "prefix_caching", paramsFor, total, clusterPrefixConc)
	p := ClusterPoint{
		Replicas:    n,
		Concurrency: clusterPrefixConc,
		Done:        res.Done,
		Failures:    res.Failures,
		Makespan:    res.Makespan,
		MeanLatency: res.Latency.Mean(),
		PerReplica:  e.ReplicaStats(),
	}
	p.ReqPerSec = metrics.Throughput(res.Done, res.Makespan)
	return p
}

// runClusterAuto drives the batch workload against autoscaling bounds and
// keeps the clock alive afterward so the drain-back is observable.
func runClusterAuto(o Options) ClusterAutoPoint {
	total := o.scale(256, 128)
	e := newPieEngine(o.seed(), func(c *pie.Config) {
		c.Replicas = 1
		c.Placement = pie.PlaceLeastLoaded
		c.Autoscale = pie.AutoscaleConfig{
			Enabled: true, Min: 1, Max: 8,
			UpDepth: 12, DownDepth: 2,
		}
	})
	params := marshalParams(apps.CompletionParams{
		Prompt:    "autoscale probe",
		MaxTokens: clusterAutoMaxTokens,
	})
	// The post-load idle tail lets the autoscaler drain back to Min before
	// the simulation finishes.
	res := loadResult{Latency: &metrics.Series{Name: "text_completion"}}
	_, res.Makespan = runLoad(e, "cluster autoscale", pie.Spec("text_completion", params), 2*time.Second,
		res.class("text_completion", func(int) string { return params }, total, clusterAutoConc))
	var p ClusterAutoPoint
	p.Done = res.Done
	p.Failures = res.Failures
	p.Tokens = res.Tokens
	p.Makespan = res.Makespan
	p.TokensPerSec = metrics.Throughput(res.Tokens, res.Makespan)
	p.Replicas = len(e.Cluster().Replicas()) // the autoscale Max bound
	p.Concurrency = clusterAutoConc
	p.PerReplica = e.ReplicaStats()
	cl := e.Cluster()
	p.ScaleUps = cl.ScaleUps
	p.DrainStart = cl.DrainStart
	p.DrainDone = cl.DrainDone
	p.FinalActive = cl.ActiveReplicas()
	return p
}

// Table renders the experiment in paper style.
func (r ClusterResult) Table() string {
	var b strings.Builder
	t := &metrics.Table{
		Title:  "Cluster: weak-scaling replica sweep (text completion, least-outstanding-tokens placement)",
		Header: []string{"replicas", "clients", "done", "tok/s", "ttft", "tpot", "speedup"},
	}
	base := 0.0
	if len(r.Sweep) > 0 {
		base = r.Sweep[0].TokensPerSec
	}
	for _, p := range r.Sweep {
		t.AddRow(fmt.Sprint(p.Replicas), fmt.Sprint(p.Concurrency), fmt.Sprint(p.Done),
			fmt.Sprintf("%.0f", p.TokensPerSec), metrics.Ms(p.TTFT), metrics.Ms(p.TPOT),
			metrics.Ratio(p.TokensPerSec, base)+"x")
	}
	b.WriteString(t.String())

	a := &metrics.Table{
		Title:  "\nCluster: placement policy on the shared-prefix workload (4 replicas, 8 hot prefixes)",
		Header: []string{"placement", "done", "req/s", "mean latency"},
	}
	a.AddRow("round-robin", fmt.Sprint(r.AffinityRR.Done),
		fmt.Sprintf("%.2f", r.AffinityRR.ReqPerSec), metrics.Ms(r.AffinityRR.MeanLatency))
	a.AddRow("kv-affinity", fmt.Sprint(r.AffinityKV.Done),
		fmt.Sprintf("%.2f", r.AffinityKV.ReqPerSec), metrics.Ms(r.AffinityKV.MeanLatency))
	b.WriteString(a.String())

	fmt.Fprintf(&b, "\nCluster: autoscaler (bounds 1..8, %d clients): %d done, %.0f tok/s, "+
		"%d scale-ups, %d drains started, %d completed, %d active at end\n",
		r.Auto.Concurrency, r.Auto.Done, r.Auto.TokensPerSec,
		r.Auto.ScaleUps, r.Auto.DrainStart, r.Auto.DrainDone, r.Auto.FinalActive)
	b.WriteString(metrics.ReplicaTable(r.Auto.PerReplica).String())
	return b.String()
}

// Headline is the experiment's gated numbers.
func (r ClusterResult) Headline() map[string]float64 {
	h := map[string]float64{}
	for _, p := range r.Sweep {
		h[fmt.Sprintf("batch-%d-tok-per-sec", p.Replicas)] = p.TokensPerSec
	}
	if len(r.Sweep) > 0 && r.Sweep[0].TokensPerSec > 0 {
		last := r.Sweep[len(r.Sweep)-1]
		h["scaling-x"] = last.TokensPerSec / r.Sweep[0].TokensPerSec
		h["batch-1-ttft-ms"] = ms(r.Sweep[0].TTFT)
		h["batch-1-tpot-ms"] = ms(r.Sweep[0].TPOT)
	}
	if r.AffinityRR.ReqPerSec > 0 {
		h["affinity-speedup-x"] = r.AffinityKV.ReqPerSec / r.AffinityRR.ReqPerSec
	}
	h["autoscale-ups"] = float64(r.Auto.ScaleUps)
	h["autoscale-drains-done"] = float64(r.Auto.DrainDone)
	h["autoscale-final-active"] = float64(r.Auto.FinalActive)
	return h
}
