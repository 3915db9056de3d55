// Package benchfmt defines the BENCH_sim.json document shared by
// cmd/pie-bench (writer) and cmd/bench-gate (reader). Keeping one schema
// means a field rename can't silently desynchronize the two commands and
// disable gate coverage.
package benchfmt

// Experiment is one experiment's entry in the report.
type Experiment struct {
	ID           string             `json:"id"`
	WallMS       float64            `json:"wall_ms"`
	Events       uint64             `json:"events"`
	OutputDigest uint64             `json:"output_digest,omitempty"` // what the programs said (eval.OutputDigest)
	EventsPerSec float64            `json:"events_per_sec"`
	Headline     map[string]float64 `json:"headline,omitempty"`
}

// Report is the top-level document. Headline metrics, event counts and
// output digests are virtual-time-deterministic (same seed + scale ⇒
// identical values); wall-time fields depend on the machine, with
// GoMaxProcs recording the machine class they were measured under.
type Report struct {
	Seed         uint64       `json:"seed"`
	Quick        bool         `json:"quick"`
	GoMaxProcs   int          `json:"gomaxprocs"`
	TotalWallMS  float64      `json:"total_wall_ms"`
	TotalEvents  uint64       `json:"total_events"`
	EventsPerSec float64      `json:"events_per_sec"`
	Experiments  []Experiment `json:"experiments"`
}
