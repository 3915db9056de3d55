// Package metrics collects latency/throughput series for the evaluation
// harness and renders paper-style tables.
package metrics

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Series accumulates duration samples.
type Series struct {
	Name    string
	samples []time.Duration
	sorted  bool // samples are in ascending order (Percentile sorts in place)
}

// Add records one sample.
func (s *Series) Add(d time.Duration) {
	s.samples = append(s.samples, d)
	s.sorted = false
}

// N returns the sample count.
func (s *Series) N() int { return len(s.samples) }

// Mean returns the average sample.
func (s *Series) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.samples {
		sum += d
	}
	return sum / time.Duration(len(s.samples))
}

// Percentile returns the p-th percentile (0-100) by nearest rank.
func (s *Series) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	if !s.sorted {
		// Drivers read p50/p95/p99 back to back: sort once per batch of Adds.
		slices.Sort(s.samples)
		s.sorted = true
	}
	idx := int(p/100*float64(len(s.samples))+0.5) - 1
	idx = max(0, min(idx, len(s.samples)-1))
	return s.samples[idx]
}

// Max returns the largest sample.
func (s *Series) Max() time.Duration {
	var mx time.Duration
	for _, d := range s.samples {
		if d > mx {
			mx = d
		}
	}
	return mx
}

// Min returns the smallest sample.
func (s *Series) Min() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	mn := s.samples[0]
	for _, d := range s.samples[1:] {
		if d < mn {
			mn = d
		}
	}
	return mn
}

// Throughput converts a completion count over a window into items/second.
func Throughput(completed int, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(completed) / window.Seconds()
}

// Table renders rows with aligned columns, paper style.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	// A row may carry more cells than the header names.
	cols := len(t.Header)
	for _, row := range t.Rows {
		cols = max(cols, len(row))
	}
	widths := make([]int, cols)
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// ReplicaStats snapshots one cluster replica's counters. The JSON shape is
// part of the pie-server /stats contract and the determinism contract:
// same-seed runs must marshal to byte-identical documents.
type ReplicaStats struct {
	ID           int     `json:"id"`
	Device       string  `json:"device"`
	Active       bool    `json:"active"`
	Draining     bool    `json:"draining"`
	Placements   int     `json:"placements"`
	Instances    int     `json:"instances"`
	Outstanding  int     `json:"outstanding_calls"`
	OutTokens    int     `json:"outstanding_tokens"`
	Batches      int     `json:"batches"`
	BatchedCalls int     `json:"batched_calls"`
	MaxBatch     int     `json:"max_batch"`
	Kernels      int     `json:"kernels"`
	GPUBusyMS    float64 `json:"gpu_busy_ms"`
	Terminations int     `json:"terminations"`

	// Tiered KV cache: residency and PCIe swap traffic (all zero when
	// host offload is disabled).
	KVDevPages   int `json:"kv_device_pages"`
	KVHostPages  int `json:"kv_host_pages"`
	KVPeakPages  int `json:"kv_peak_pages"`
	SwapInPages  int `json:"swap_in_pages"`
	SwapOutPages int `json:"swap_out_pages"`

	// Warm-artifact cache: program binaries resident on the replica and
	// the cold/warm launch split they produced (Fig. 9 economics).
	Artifacts         int `json:"artifacts"`
	ArtifactHits      int `json:"artifact_hits"`
	ArtifactMisses    int `json:"artifact_misses"`
	ArtifactEvictions int `json:"artifact_evictions"`
	Aborts            int `json:"aborts"`

	// Fault layer: the replica's health state ("healthy", "suspect",
	// "dead") and the in-flight instances evacuated off it when it died
	// (the launches handed back for requeue).
	Health   string `json:"health"`
	Requeues int    `json:"requeues"`

	// SLO-aware serving: the replica's hardware variant, its accumulated
	// cost (cost rate x active seconds), whether it is inside the
	// cold-start window, and queues it served on a downgraded model.
	Variant    string  `json:"variant"`
	CostRate   float64 `json:"cost_rate"`
	CostUnits  float64 `json:"cost_units"`
	Warming    bool    `json:"warming"`
	Downgrades int     `json:"model_downgrades"`

	// Prefill/decode disaggregation: the replica's role ("unified",
	// "prefill", "decode") and sessions handed off from / to it.
	Role        string `json:"role"`
	HandoffsIn  int    `json:"handoffs_in"`
	HandoffsOut int    `json:"handoffs_out"`
}

// ReplicaTable renders per-replica stats in paper style.
func ReplicaTable(rows []ReplicaStats) *Table {
	t := &Table{
		Title:  "Per-replica stats",
		Header: []string{"replica", "state", "placed", "batches", "calls", "maxbatch", "kernels", "gpu-busy", "terms", "kv dev/host", "swaps in/out"},
	}
	for _, r := range rows {
		state := "inactive"
		switch {
		case r.Health == "dead":
			state = "dead"
		case r.Health == "suspect" && r.Active:
			state = "suspect"
		case r.Active && r.Draining:
			state = "draining"
		case r.Active:
			state = "active"
		}
		t.AddRow(r.Device, state, fmt.Sprint(r.Placements), fmt.Sprint(r.Batches),
			fmt.Sprint(r.BatchedCalls), fmt.Sprint(r.MaxBatch), fmt.Sprint(r.Kernels),
			fmt.Sprintf("%.2f ms", r.GPUBusyMS), fmt.Sprint(r.Terminations),
			fmt.Sprintf("%d/%d", r.KVDevPages, r.KVHostPages),
			fmt.Sprintf("%d/%d", r.SwapInPages, r.SwapOutPages))
	}
	return t
}

// Ms formats a duration as milliseconds with two decimals.
func Ms(d time.Duration) string { return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond)) }

// Sec formats a duration as seconds with two decimals.
func Sec(d time.Duration) string { return fmt.Sprintf("%.2f s", d.Seconds()) }

// Ratio formats a/b with two decimals, guarding zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", a/b)
}
