package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pie/internal/benchfmt"
)

// TestCompareIsExact: identical reports pass with every headline and
// event count counted identical; a headline one ulp off, an event count
// one off, another output digest, and a metric or experiment that one report has and the other
// lacks each fail, named.
func TestCompareIsExact(t *testing.T) {
	report := func(edit func(*benchfmt.Report)) benchfmt.Report {
		r := benchfmt.Report{Experiments: []benchfmt.Experiment{
			{ID: "a", Events: 1000, OutputDigest: 99, Headline: map[string]float64{"x": 1.5, "y": 0.1}},
			{ID: "b", Events: 20, Headline: map[string]float64{"z": 7}},
		}}
		if edit != nil {
			edit(&r)
		}
		return r
	}
	base := report(nil)
	cases := []struct {
		name       string
		edit       func(*benchfmt.Report)
		identical  string
		violations []string
	}{
		{"identical", nil,
			"3 of 3 headlines and 2 of 2 event counts byte-identical", nil},
		{"headline one ulp", func(r *benchfmt.Report) { r.Experiments[0].Headline["y"] = math.Nextafter(0.1, 1) },
			"2 of 3 headlines and 2 of 2 event counts byte-identical",
			[]string{"a/y: 0.1 -> 0.10000000000000002"}},
		{"event count +1", func(r *benchfmt.Report) { r.Experiments[1].Events++ },
			"3 of 3 headlines and 1 of 2 event counts byte-identical",
			[]string{"b: event count 20 -> 21"}},
		{"output digest", func(r *benchfmt.Report) { r.Experiments[0].OutputDigest = 7 },
			"3 of 3 headlines and 2 of 2 event counts byte-identical",
			[]string{"a: output digest 99 -> 7"}},
		{"missing metric", func(r *benchfmt.Report) { delete(r.Experiments[0].Headline, "x") },
			"2 of 2 headlines and 2 of 2 event counts byte-identical",
			[]string{"a/x: headline metric missing from fresh report"}},
		{"extra metric", func(r *benchfmt.Report) { r.Experiments[1].Headline["w"] = 0 },
			"3 of 3 headlines and 2 of 2 event counts byte-identical",
			[]string{"b/w: headline metric missing from baseline (stale BENCH_sim.json)"}},
		{"missing experiment", func(r *benchfmt.Report) { r.Experiments = r.Experiments[:1] },
			"2 of 2 headlines and 1 of 1 event counts byte-identical",
			[]string{"b: experiment missing from fresh report"}},
		{"extra experiment", func(r *benchfmt.Report) {
			r.Experiments = append(r.Experiments, benchfmt.Experiment{ID: "c", Events: 1})
		},
			"3 of 3 headlines and 2 of 2 event counts byte-identical",
			[]string{"c: experiment missing from baseline (stale BENCH_sim.json — regenerate it)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := compare(base, report(tc.edit))
			if got := c.identical(); got != tc.identical {
				t.Errorf("identical() = %q, want %q", got, tc.identical)
			}
			if !reflect.DeepEqual(c.violations, tc.violations) {
				t.Errorf("violations = %q, want %q", c.violations, tc.violations)
			}
		})
	}
}

// TestRunExitStatus runs the gate on copies of the committed baseline: an
// untouched copy passes, a headline one ulp off or an event count one off
// fails, and incomparable reports, unreadable files and the retired
// tolerance flags are usage errors.
func TestRunExitStatus(t *testing.T) {
	blob, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, edit func(*benchfmt.Report)) string {
		var r benchfmt.Report
		if err := json.Unmarshal(blob, &r); err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(&r)
		}
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", nil)
	firstKey := func(r *benchfmt.Report) string { return sortedKeys(r.Experiments[0].Headline)[0] }
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"copy", []string{"-fresh", write("copy.json", nil)}, 0},
		{"headline one ulp", []string{"-fresh", write("ulp.json", func(r *benchfmt.Report) {
			h := r.Experiments[0].Headline
			h[firstKey(r)] = math.Nextafter(h[firstKey(r)], math.Inf(1))
		})}, 1},
		{"event count +1", []string{"-fresh", write("events.json", func(r *benchfmt.Report) { r.Experiments[0].Events++ })}, 1},
		{"other seed", []string{"-fresh", write("seed.json", func(r *benchfmt.Report) { r.Seed++ })}, 2},
		{"missing file", []string{"-fresh", filepath.Join(dir, "absent.json")}, 2},
		{"-tol", []string{"-tol", "0.2", "-fresh", base}, 2},
		{"-tol-config", []string{"-tol-config", "x.json", "-fresh", base}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			summary := filepath.Join(t.TempDir(), "summary.md")
			t.Setenv("GITHUB_STEP_SUMMARY", summary)
			var stdout, stderr strings.Builder
			if got := run(append([]string{"-baseline", base}, tc.args...), &stdout, &stderr); got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, stdout.String(), stderr.String())
			}
			if tc.want == 2 {
				return
			}
			doc, err := os.ReadFile(summary)
			if err != nil {
				t.Fatal(err)
			}
			verdict := map[int]string{0: "### bench-gate: OK", 1: "### bench-gate: FAIL (1 violations)"}[tc.want]
			if !strings.HasPrefix(string(doc), verdict) {
				t.Errorf("step summary starts %.60q, want %q", doc, verdict)
			}
		})
	}
}
