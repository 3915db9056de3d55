package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pie/internal/benchfmt"
)

func writeTolConfig(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tol.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTolConfigResolution pins the layering: metric override > experiment
// override > document default > -tol flag, and a nil config falls straight
// through to the flag.
func TestTolConfigResolution(t *testing.T) {
	c, err := loadTolConfig(writeTolConfig(t, `{
		"default": 0.10,
		"experiments": {
			"fleet":  {"metrics": {"naive-vs-steady-x": 0.35}},
			"faults": {"tol": 0.25, "metrics": {"p95-ms": 0.30}}
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		id, metric string
		want       float64
	}{
		{"fleet", "naive-vs-steady-x", 0.35},   // metric override
		{"fleet", "rolling-vs-steady-x", 0.10}, // falls to document default
		{"faults", "p95-ms", 0.30},             // metric override beats exp tol
		{"faults", "other", 0.25},              // experiment tol
		{"cluster", "anything", 0.10},          // document default
	}
	for _, tc := range cases {
		if got := c.forMetric(tc.id, tc.metric, 0.20); got != tc.want {
			t.Errorf("forMetric(%s, %s) = %v, want %v", tc.id, tc.metric, got, tc.want)
		}
	}
	if got := c.forExperiment("faults", 0.20); got != 0.25 {
		t.Errorf("forExperiment(faults) = %v", got)
	}
	if got := c.forExperiment("fleet", 0.20); got != 0.10 {
		t.Errorf("forExperiment(fleet) = %v, want document default", got)
	}

	// No document default: unlisted experiments use the flag.
	c2, err := loadTolConfig(writeTolConfig(t, `{"experiments": {"fleet": {"tol": 0.30}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.forMetric("cluster", "x", 0.20); got != 0.20 {
		t.Errorf("flag fallback = %v", got)
	}

	// Nil config: always the flag.
	var nilc *tolConfig
	if got := nilc.forMetric("fleet", "x", 0.20); got != 0.20 {
		t.Errorf("nil config = %v", got)
	}
	if got := nilc.forExperiment("fleet", 0.20); got != 0.20 {
		t.Errorf("nil config exp = %v", got)
	}
}

// TestTolConfigErrors: unknown fields and unknown experiment IDs are
// refused — a typo must not silently gate nothing.
func TestTolConfigErrors(t *testing.T) {
	if _, err := loadTolConfig(writeTolConfig(t, `{"experimnts": {}}`)); err == nil {
		t.Fatal("misspelled field accepted")
	}
	if _, err := loadTolConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	c, err := loadTolConfig(writeTolConfig(t, `{"experiments": {"ghost": {"tol": 0.5}}}`))
	if err != nil {
		t.Fatal(err)
	}
	base := benchfmt.Report{Experiments: []benchfmt.Experiment{{ID: "fleet"}}}
	if err := c.checkIDs(base); err == nil {
		t.Fatal("unknown experiment ID accepted")
	}
	ok, err := loadTolConfig(writeTolConfig(t, `{"experiments": {"fleet": {"tol": 0.5}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.checkIDs(base); err != nil {
		t.Fatalf("checkIDs on valid config: %v", err)
	}
}

// TestRelDiff pins the symmetric-relative-difference edge cases the gate
// depends on.
func TestRelDiff(t *testing.T) {
	if d := relDiff(0, 0); d != 0 {
		t.Errorf("relDiff(0,0) = %v", d)
	}
	if d := relDiff(110, 100); d < 0.0909 || d > 0.0910 {
		t.Errorf("relDiff(110,100) = %v", d)
	}
	if relDiff(100, 110) != relDiff(110, 100) {
		t.Error("relDiff must be symmetric")
	}
	if d := relDiff(5, 0); d != 1 {
		t.Errorf("relDiff(5,0) = %v, want 1", d)
	}
}

// TestCompareCountsWhatMoved: equal to the bit is counted as identical, a
// difference inside tolerance passes but is listed, one beyond it is a
// violation — for headlines and event counts alike — and anything one
// report has and the other lacks is a violation in either direction.
func TestCompareCountsWhatMoved(t *testing.T) {
	exp := func(id string, events uint64, h map[string]float64) benchfmt.Experiment {
		return benchfmt.Experiment{ID: id, Events: events, Headline: h}
	}
	base := benchfmt.Report{Experiments: []benchfmt.Experiment{
		exp("a", 1000, map[string]float64{"same": 1.5, "inside": 100, "beyond": 100, "gone": 1}),
		exp("b", 1000, map[string]float64{"same": 0.1}),
		exp("c", 1000, nil),
		exp("dropped", 10, nil),
	}}
	fresh := benchfmt.Report{Experiments: []benchfmt.Experiment{
		exp("a", 1000, map[string]float64{"same": 1.5, "inside": 119, "beyond": 130, "new": 1}),
		exp("b", 1100, map[string]float64{"same": 0.1}),
		exp("c", 2000, nil),
		exp("added", 10, nil),
	}}
	c := compare(base, fresh, nil, 0.20)
	if got, want := c.identical(), "2 of 4 headlines and 1 of 3 event counts byte-identical"; got != want {
		t.Errorf("identical() = %q, want %q", got, want)
	}
	wantMoved := []string{
		"a/inside: moved 15.97% (100 -> 119, tol 20%)",
		"b: event count moved 9.09% (1000 -> 1100, tol 20%)",
	}
	if !reflect.DeepEqual(c.moved, wantMoved) {
		t.Errorf("moved = %q, want %q", c.moved, wantMoved)
	}
	wantViolations := []string{
		"a/beyond: drifted 23.1% (100 -> 130, tol 20%)",
		"a/gone: headline metric missing from fresh report",
		"c: event count drifted 50.0% (1000 -> 2000, tol 20%)",
		"dropped: experiment missing from fresh report",
		"a/new: headline metric missing from baseline (stale BENCH_sim.json)",
		"added: experiment missing from baseline (stale BENCH_sim.json — regenerate it)",
	}
	if !reflect.DeepEqual(c.violations, wantViolations) {
		t.Errorf("violations = %q, want %q", c.violations, wantViolations)
	}
}
