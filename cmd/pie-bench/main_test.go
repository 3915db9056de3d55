package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pie/internal/benchfmt"
	"pie/internal/eval"
)

// bench runs pie-bench with a report path appended and returns its exit
// status, its stderr and the report (zero if none was written).
func bench(t *testing.T, args ...string) (int, string, benchfmt.Report) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	status := run(append(args, "-json-out", path), &stdout, &stderr)
	var rep benchfmt.Report
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &rep); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	return status, stderr.String(), rep
}

func TestUnknownExperimentIsAnError(t *testing.T) {
	status, stderr, rep := bench(t, "-quick", "-exp", "fig99,table2")
	if status != 2 {
		t.Errorf("exit status %d, want 2", status)
	}
	if len(rep.Experiments) != 0 {
		t.Errorf("ran %d experiments before rejecting the list", len(rep.Experiments))
	}
	if !strings.Contains(stderr, `"fig99"`) {
		t.Errorf("stderr does not name the unknown id: %s", stderr)
	}
	for _, x := range eval.Experiments() {
		if !strings.Contains(stderr, x.ID) {
			t.Errorf("stderr does not list the valid id %q: %s", x.ID, stderr)
		}
	}
}

func TestReportHoldsTheSelectedExperiments(t *testing.T) {
	// Selected out of table order; reported in it.
	status, stderr, rep := bench(t, "-quick", "-exp", "fig9, table2")
	if status != 0 {
		t.Fatalf("exit status %d: %s", status, stderr)
	}
	var ids []string
	for _, x := range rep.Experiments {
		ids = append(ids, x.ID)
		if len(x.Headline) == 0 {
			t.Errorf("%s: empty headline", x.ID)
		}
	}
	if want := []string{"table2", "fig9"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("report holds %v, want %v", ids, want)
	}
	if !rep.Quick || rep.Seed != defaultSeed || rep.TotalEvents == 0 {
		t.Errorf("report header: quick %v seed %d events %d", rep.Quick, rep.Seed, rep.TotalEvents)
	}
	if x := rep.Experiments; x[0].OutputDigest != 0 || x[1].OutputDigest == 0 {
		t.Errorf("output digests: table2 (launches nothing) %d, fig9 %d", x[0].OutputDigest, x[1].OutputDigest)
	}

	// A zero seed runs the default seed, and the report says so.
	_, _, zero := bench(t, "-quick", "-seed", "0", "-exp", "fig9")
	if zero.Seed != defaultSeed {
		t.Errorf("-seed 0 recorded seed %d, want the effective seed %d", zero.Seed, defaultSeed)
	}
	if got, want := zero.Experiments[0], rep.Experiments[1]; !reflect.DeepEqual(got.Headline, want.Headline) || got.OutputDigest != want.OutputDigest {
		t.Errorf("-seed 0 ran something other than seed %d: %v vs %v", defaultSeed, got, want)
	}
}

// TestReportOnlyOnRequest: without -json-out no report is written, and
// -json is not a flag.
func TestReportOnlyOnRequest(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-quick", "-exp", "table2"}, &stdout, &stderr); status != 0 {
		t.Fatalf("exit status %d: %s", status, stderr.String())
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("wrote %v without -json-out", files)
	}
	if status := run([]string{"-json"}, &stdout, &stderr); status != 2 {
		t.Errorf("-json: exit status %d, want 2", status)
	}
}
