package eval

import (
	"testing"
)

// TestClusterSweepScalesMonotonically pins the headline acceptance claim:
// aggregate tokens/sec grows with every added replica on the batch
// workload, the affinity policy beats round-robin on the shared-prefix
// workload, and the queue-depth comparator both grows under load and
// drains back.
func TestClusterSweepScalesMonotonically(t *testing.T) {
	r := ClusterSweep(quick)
	if len(r.Sweep) != clusterSweepMaxN {
		t.Fatalf("%d sweep points, want %d", len(r.Sweep), clusterSweepMaxN)
	}
	for i, p := range r.Sweep {
		if p.Replicas != i+1 {
			t.Fatalf("point %d has Replicas=%d", i, p.Replicas)
		}
		if p.Failures != 0 {
			t.Fatalf("point N=%d had %d failures", p.Replicas, p.Failures)
		}
		if p.Done == 0 || p.Tokens == 0 || p.TTFT == 0 || p.TPOT == 0 {
			t.Fatalf("point N=%d incomplete: %+v", p.Replicas, p)
		}
		if i > 0 && p.TokensPerSec <= r.Sweep[i-1].TokensPerSec {
			t.Fatalf("tokens/sec not monotonic: N=%d %.0f <= N=%d %.0f",
				p.Replicas, p.TokensPerSec, r.Sweep[i-1].Replicas, r.Sweep[i-1].TokensPerSec)
		}
		if len(p.PerReplica) != p.Replicas {
			t.Fatalf("point N=%d has %d replica stats", p.Replicas, len(p.PerReplica))
		}
	}
	if r.AffinityKV.ReqPerSec <= r.AffinityRR.ReqPerSec {
		t.Fatalf("kv-affinity %.2f req/s did not beat round-robin %.2f req/s",
			r.AffinityKV.ReqPerSec, r.AffinityRR.ReqPerSec)
	}
	if r.Auto.ScaleUps == 0 || r.Auto.DrainDone == 0 {
		t.Fatalf("autoscaler trajectory missing: %+v", r.Auto)
	}
	if r.Auto.FinalActive != 1 {
		t.Fatalf("autoscaler ended with %d active replicas, want 1", r.Auto.FinalActive)
	}
}
