// Command bench-gate compares a freshly generated pie-bench JSON report
// against the committed baseline (BENCH_sim.json) and fails on regression.
// CI runs it on every PR:
//
//	GOMAXPROCS=1 pie-bench -quick -json-out fresh_bench.json
//	bench-gate -baseline BENCH_sim.json -fresh fresh_bench.json
//
// Two kinds of checks, with different physics:
//
//   - Headline metrics and per-experiment event counts derive from virtual
//     time, so same-seed same-scale runs reproduce them exactly. Any drift
//     beyond -tol means the simulation's behavior changed: either a real
//     regression, or an intentional change that must regenerate the
//     committed baseline in the same PR. Drift inside -tol passes, but is
//     counted and listed: only byte-identical is "nothing moved".
//   - events/sec is wall-clock replay speed — machine-dependent — so only
//     a regression beyond -perf-tol fails; running faster never does.
//
// Exit status: 0 clean, 1 violations, 2 usage/incomparable inputs.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"pie/internal/benchfmt"
)

// tolConfig is the optional -tol-config document: per-experiment and
// per-metric overrides layered over the -tol flag. Resolution order for a
// headline metric is metric override > experiment override > document
// default > -tol; event-count checks stop at the experiment level. An
// override names exactly the metrics whose physics justify extra slack, so
// loosening one noisy ratio never loosens the whole suite.
type tolConfig struct {
	Default     float64            `json:"default,omitempty"`
	Experiments map[string]expTols `json:"experiments,omitempty"`
}

type expTols struct {
	Tol     *float64           `json:"tol,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func loadTolConfig(path string) (*tolConfig, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c tolConfig
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// checkIDs fails on overrides that name experiments absent from the
// baseline: a typo there would silently gate nothing.
func (c *tolConfig) checkIDs(base benchfmt.Report) error {
	known := map[string]bool{}
	for _, b := range base.Experiments {
		known[b.ID] = true
	}
	ids := make([]string, 0, len(c.Experiments))
	for id := range c.Experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !known[id] {
			return fmt.Errorf("tol-config names unknown experiment %q (baseline has none)", id)
		}
	}
	return nil
}

// forExperiment resolves the tolerance for an experiment-level check.
func (c *tolConfig) forExperiment(id string, flagTol float64) float64 {
	if c == nil {
		return flagTol
	}
	if e, ok := c.Experiments[id]; ok && e.Tol != nil {
		return *e.Tol
	}
	if c.Default > 0 {
		return c.Default
	}
	return flagTol
}

// forMetric resolves the tolerance for one headline metric.
func (c *tolConfig) forMetric(id, metric string, flagTol float64) float64 {
	if c == nil {
		return flagTol
	}
	if e, ok := c.Experiments[id]; ok {
		if t, ok := e.Metrics[metric]; ok {
			return t
		}
	}
	return c.forExperiment(id, flagTol)
}

func load(path string) (benchfmt.Report, error) {
	var r benchfmt.Report
	blob, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(blob, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// relDiff is the symmetric relative difference, safe around zero.
func relDiff(fresh, base float64) float64 {
	if fresh == base {
		return 0
	}
	denom := math.Max(math.Abs(base), math.Abs(fresh))
	if denom == 0 {
		return 0
	}
	return math.Abs(fresh-base) / denom
}

// comparison is what the deterministic checks found: violations fail the
// gate; moved lists what differs inside its tolerance, which passes.
type comparison struct {
	violations, moved        []string
	headlines, sameHeadlines int // compared, and of those equal to the bit
	eventCounts, sameEvents  int
}

// identical is the sentence CHANGES.md entries quote.
func (c comparison) identical() string {
	return fmt.Sprintf("%d of %d headlines and %d of %d event counts byte-identical",
		c.sameHeadlines, c.headlines, c.sameEvents, c.eventCounts)
}

func byID(r benchfmt.Report) map[string]benchfmt.Experiment {
	m := map[string]benchfmt.Experiment{}
	for _, e := range r.Experiments {
		m[e.ID] = e
	}
	return m
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compare checks every event count and headline metric of the baseline
// against the fresh report, then the fresh report for anything the baseline
// lacks.
func compare(base, fresh benchfmt.Report, tols *tolConfig, tol float64) comparison {
	var c comparison
	fail := func(format string, args ...any) { c.violations = append(c.violations, fmt.Sprintf(format, args...)) }
	freshByID, baseByID := byID(fresh), byID(base)
	for _, b := range base.Experiments {
		f, ok := freshByID[b.ID]
		if !ok {
			fail("%s: experiment missing from fresh report", b.ID)
			continue
		}
		c.eventCounts++
		et := tols.forExperiment(b.ID, tol)
		switch d := relDiff(float64(f.Events), float64(b.Events)); {
		case f.Events == b.Events:
			c.sameEvents++
		case d > et:
			fail("%s: event count drifted %.1f%% (%d -> %d, tol %.0f%%)", b.ID, d*100, b.Events, f.Events, et*100)
		default:
			c.moved = append(c.moved, fmt.Sprintf("%s: event count moved %.2f%% (%d -> %d, tol %.0f%%)",
				b.ID, d*100, b.Events, f.Events, et*100))
		}
		for _, k := range sortedKeys(b.Headline) {
			bv := b.Headline[k]
			fv, ok := f.Headline[k]
			if !ok {
				fail("%s/%s: headline metric missing from fresh report", b.ID, k)
				continue
			}
			c.headlines++
			mt := tols.forMetric(b.ID, k, tol)
			switch d := relDiff(fv, bv); {
			case fv == bv:
				c.sameHeadlines++
			case d > mt:
				fail("%s/%s: drifted %.1f%% (%.4g -> %.4g, tol %.0f%%)", b.ID, k, d*100, bv, fv, mt*100)
			default:
				c.moved = append(c.moved, fmt.Sprintf("%s/%s: moved %.2f%% (%.6g -> %.6g, tol %.0f%%)",
					b.ID, k, d*100, bv, fv, mt*100))
			}
		}
	}

	// Anything present only in the fresh report means the committed
	// baseline is stale (e.g. regenerated with an -exp subset): those
	// metrics would silently lose regression coverage.
	for _, f := range fresh.Experiments {
		b, ok := baseByID[f.ID]
		if !ok {
			fail("%s: experiment missing from baseline (stale BENCH_sim.json — regenerate it)", f.ID)
			continue
		}
		for _, k := range sortedKeys(f.Headline) {
			if _, ok := b.Headline[k]; !ok {
				fail("%s/%s: headline metric missing from baseline (stale BENCH_sim.json)", f.ID, k)
			}
		}
	}
	return c
}

func main() {
	basePath := flag.String("baseline", "BENCH_sim.json", "committed baseline report")
	freshPath := flag.String("fresh", "fresh_bench.json", "freshly generated report")
	tol := flag.Float64("tol", 0.20, "tolerance for deterministic metrics (headlines, event counts)")
	perfTol := flag.Float64("perf-tol", 0.20, "allowed events/sec regression (faster is always fine)")
	tolConfigPath := flag.String("tol-config", "", "optional JSON file with per-experiment/per-metric tolerance overrides")
	flag.Parse()

	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-gate:", err)
		os.Exit(2)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-gate:", err)
		os.Exit(2)
	}
	var tols *tolConfig
	if *tolConfigPath != "" {
		tols, err = loadTolConfig(*tolConfigPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-gate:", err)
			os.Exit(2)
		}
		if err := tols.checkIDs(base); err != nil {
			fmt.Fprintln(os.Stderr, "bench-gate:", err)
			os.Exit(2)
		}
	}
	if base.Seed != fresh.Seed || base.Quick != fresh.Quick {
		fmt.Fprintf(os.Stderr, "bench-gate: incomparable reports: baseline seed=%d quick=%v, fresh seed=%d quick=%v\n",
			base.Seed, base.Quick, fresh.Seed, fresh.Quick)
		os.Exit(2)
	}

	c := compare(base, fresh, tols, *tol)

	// Replay speed: regression-only, whole-suite, and only when the two
	// reports come from the same machine class — wall-clock comparisons
	// across different core counts measure the hardware, not the code.
	if base.GoMaxProcs != fresh.GoMaxProcs {
		fmt.Printf("bench-gate: gomaxprocs differs (baseline %d, fresh %d); events/sec check is advisory only\n",
			base.GoMaxProcs, fresh.GoMaxProcs)
	} else if base.EventsPerSec > 0 && fresh.EventsPerSec < base.EventsPerSec*(1-*perfTol) {
		c.violations = append(c.violations, fmt.Sprintf(
			"suite events/sec regressed %.1f%% (%.0f -> %.0f)",
			(1-fresh.EventsPerSec/base.EventsPerSec)*100, base.EventsPerSec, fresh.EventsPerSec))
	}

	writeStepSummary(base, fresh, c)

	fmt.Printf("bench-gate: %d experiments, %d headline metrics checked (tol %.0f%%, perf-tol %.0f%%)\n",
		len(base.Experiments), c.headlines, *tol*100, *perfTol*100)
	fmt.Printf("bench-gate: %s\n", c.identical())
	for _, m := range c.moved {
		fmt.Println("  ~", m)
	}
	fmt.Printf("bench-gate: suite events/sec baseline %.0f, fresh %.0f (%+.1f%%)\n",
		base.EventsPerSec, fresh.EventsPerSec,
		(fresh.EventsPerSec/base.EventsPerSec-1)*100)
	if len(c.violations) > 0 {
		fmt.Println("bench-gate: FAIL")
		for _, v := range c.violations {
			fmt.Println("  -", v)
		}
		fmt.Println("(intentional behavior changes must regenerate BENCH_sim.json in the same PR:" +
			" GOMAXPROCS=1 go run ./cmd/pie-bench -quick -json-out BENCH_sim.json)")
		os.Exit(1)
	}
	fmt.Println("bench-gate: OK")
}

// pct renders a signed relative change, tolerating a zero baseline.
func pct(fresh, base float64) string {
	if base == 0 {
		if fresh == 0 {
			return "0.0%"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", (fresh/base-1)*100)
}

// writeStepSummary appends a per-experiment baseline-vs-fresh delta table
// to the GitHub Actions step summary (when $GITHUB_STEP_SUMMARY is set),
// so a reviewer can see exactly which metrics moved without reading the
// job log. Purely cosmetic: write failures warn but never change the
// gate's verdict.
func writeStepSummary(base, fresh benchfmt.Report, c comparison) {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" {
		return
	}
	violations, freshByID := c.violations, byID(fresh)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-gate: step summary:", err)
		return
	}
	defer f.Close()

	verdict := "OK"
	if len(violations) > 0 {
		verdict = fmt.Sprintf("FAIL (%d violations)", len(violations))
	}
	fmt.Fprintf(f, "### bench-gate: %s\n\n%s.\n", verdict, c.identical())
	if len(c.moved) > 0 {
		fmt.Fprintln(f, "\nMoved inside tolerance:")
		for _, m := range c.moved {
			fmt.Fprintf(f, "- %s\n", m)
		}
	}
	fmt.Fprintln(f)
	fmt.Fprintln(f, "| experiment | metric | baseline | fresh | delta |")
	fmt.Fprintln(f, "|---|---|---:|---:|---:|")
	for _, b := range base.Experiments {
		fr, ok := freshByID[b.ID]
		if !ok {
			fmt.Fprintf(f, "| %s | — | — | — | missing from fresh |\n", b.ID)
			continue
		}
		fmt.Fprintf(f, "| %s | events | %d | %d | %s |\n",
			b.ID, b.Events, fr.Events, pct(float64(fr.Events), float64(b.Events)))
		fmt.Fprintf(f, "| %s | events/sec | %.0f | %.0f | %s |\n",
			b.ID, b.EventsPerSec, fr.EventsPerSec, pct(fr.EventsPerSec, b.EventsPerSec))
		for _, k := range sortedKeys(b.Headline) {
			fv, ok := fr.Headline[k]
			if !ok {
				fmt.Fprintf(f, "| %s | %s | %.4g | — | missing from fresh |\n", b.ID, k, b.Headline[k])
				continue
			}
			fmt.Fprintf(f, "| %s | %s | %.4g | %.4g | %s |\n", b.ID, k, b.Headline[k], fv, pct(fv, b.Headline[k]))
		}
	}
	fmt.Fprintf(f, "\nSuite events/sec: baseline %.0f, fresh %.0f (%s).\n",
		base.EventsPerSec, fresh.EventsPerSec, pct(fresh.EventsPerSec, base.EventsPerSec))
	if len(violations) > 0 {
		fmt.Fprintln(f, "\nViolations:")
		for _, v := range violations {
			fmt.Fprintf(f, "- %s\n", v)
		}
	}
}
