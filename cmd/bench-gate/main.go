// Command bench-gate compares a freshly generated pie-bench JSON report
// against the committed baseline (BENCH_sim.json) and fails on regression.
// CI runs it on every PR:
//
//	GOMAXPROCS=1 pie-bench -quick -json-out fresh_bench.json
//	bench-gate -baseline BENCH_sim.json -fresh fresh_bench.json
//
// Two kinds of checks, with different physics:
//
//   - Headline metrics, per-experiment event counts and output digests
//     derive from virtual time, so same-seed same-scale runs reproduce them
//     to the bit. They
//     are compared exactly: any difference fails, and either is a
//     regression or an intended change that re-records the committed
//     baseline in the same PR.
//   - events/sec is wall-clock replay speed — machine-dependent — so only
//     a regression beyond -perf-tol fails; running faster never does.
//
// Exit status: 0 clean, 1 violations, 2 usage/incomparable inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"pie/internal/benchfmt"
)

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

// comparison is what the deterministic checks found: each violation fails
// the gate.
type comparison struct {
	violations               []string
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
// against the fresh report for equality, then the fresh report for
// anything the baseline lacks.
func compare(base, fresh benchfmt.Report) comparison {
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
		if f.Events == b.Events {
			c.sameEvents++
		} else {
			fail("%s: event count %d -> %d", b.ID, b.Events, f.Events)
		}
		if f.OutputDigest != b.OutputDigest {
			fail("%s: output digest %d -> %d", b.ID, b.OutputDigest, f.OutputDigest)
		}
		for _, k := range sortedKeys(b.Headline) {
			bv := b.Headline[k]
			fv, ok := f.Headline[k]
			if !ok {
				fail("%s/%s: headline metric missing from fresh report", b.ID, k)
				continue
			}
			c.headlines++
			if fv == bv {
				c.sameHeadlines++
			} else {
				fail("%s/%s: %v -> %v", b.ID, k, bv, fv)
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench-gate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("baseline", "BENCH_sim.json", "committed baseline report")
	freshPath := fs.String("fresh", "fresh_bench.json", "freshly generated report")
	perfTol := fs.Float64("perf-tol", 0.20, "allowed events/sec regression (faster is always fine)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench-gate:", err)
		return 2
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench-gate:", err)
		return 2
	}
	if base.Seed != fresh.Seed || base.Quick != fresh.Quick {
		fmt.Fprintf(stderr, "bench-gate: incomparable reports: baseline seed=%d quick=%v, fresh seed=%d quick=%v\n",
			base.Seed, base.Quick, fresh.Seed, fresh.Quick)
		return 2
	}

	c := compare(base, fresh)

	// Replay speed: regression-only, whole-suite, and only when the two
	// reports come from the same machine class — wall-clock comparisons
	// across different core counts measure the hardware, not the code.
	if base.GoMaxProcs != fresh.GoMaxProcs {
		fmt.Fprintf(stdout, "bench-gate: gomaxprocs differs (baseline %d, fresh %d); events/sec check is advisory only\n",
			base.GoMaxProcs, fresh.GoMaxProcs)
	} else if base.EventsPerSec > 0 && fresh.EventsPerSec < base.EventsPerSec*(1-*perfTol) {
		c.violations = append(c.violations, fmt.Sprintf(
			"suite events/sec regressed %.1f%% (%.0f -> %.0f)",
			(1-fresh.EventsPerSec/base.EventsPerSec)*100, base.EventsPerSec, fresh.EventsPerSec))
	}

	writeStepSummary(base, fresh, c)

	fmt.Fprintf(stdout, "bench-gate: %d experiments, %d headline metrics checked (exact, perf-tol %.0f%%)\n",
		len(base.Experiments), c.headlines, *perfTol*100)
	fmt.Fprintf(stdout, "bench-gate: %s\n", c.identical())
	fmt.Fprintf(stdout, "bench-gate: suite events/sec baseline %.0f, fresh %.0f (%+.1f%%)\n",
		base.EventsPerSec, fresh.EventsPerSec,
		(fresh.EventsPerSec/base.EventsPerSec-1)*100)
	if len(c.violations) > 0 {
		fmt.Fprintln(stdout, "bench-gate: FAIL")
		for _, v := range c.violations {
			fmt.Fprintln(stdout, "  -", v)
		}
		fmt.Fprintln(stdout, "(intentional behavior changes must regenerate BENCH_sim.json in the same PR:"+
			" GOMAXPROCS=1 go run ./cmd/pie-bench -quick -json-out BENCH_sim.json)")
		return 1
	}
	fmt.Fprintln(stdout, "bench-gate: OK")
	return 0
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
