package metrics

import (
	"strings"
	"testing"
	"time"
)

const ms = time.Millisecond

func series(samples ...time.Duration) *Series {
	s := &Series{}
	for _, d := range samples {
		s.Add(d)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []time.Duration
		p       float64
		want    time.Duration
	}{
		{"n=0", nil, 50, 0},
		{"n=1 p=0", []time.Duration{7 * ms}, 0, 7 * ms},
		{"n=1 p=50", []time.Duration{7 * ms}, 50, 7 * ms},
		{"n=1 p=100", []time.Duration{7 * ms}, 100, 7 * ms},
		{"n=2 p=0", []time.Duration{9 * ms, 3 * ms}, 0, 3 * ms},
		{"n=2 p=50", []time.Duration{9 * ms, 3 * ms}, 50, 3 * ms},
		{"n=2 p=100", []time.Duration{9 * ms, 3 * ms}, 100, 9 * ms},
		{"n=5 p=50", []time.Duration{5 * ms, 1 * ms, 4 * ms, 2 * ms, 3 * ms}, 50, 3 * ms},
		{"n=5 p=95", []time.Duration{5 * ms, 1 * ms, 4 * ms, 2 * ms, 3 * ms}, 95, 5 * ms},
		{"p past 100 clamps", []time.Duration{2 * ms, 1 * ms}, 250, 2 * ms},
	} {
		if got := series(tc.samples...).Percentile(tc.p); got != tc.want {
			t.Errorf("%s: Percentile(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
}

// The sort is cached between Adds and must not survive one.
func TestPercentileSeesSamplesAddedAfterARead(t *testing.T) {
	s := series(30*ms, 10*ms, 20*ms)
	if got := s.Percentile(100); got != 30*ms {
		t.Fatalf("p100 = %v, want 30ms", got)
	}
	s.Add(5 * ms)
	s.Add(40 * ms)
	if p0, p50, p100 := s.Percentile(0), s.Percentile(50), s.Percentile(100); p0 != 5*ms || p50 != 20*ms || p100 != 40*ms {
		t.Fatalf("after two more Adds p0/p50/p100 = %v/%v/%v, want 5ms/20ms/40ms", p0, p50, p100)
	}
	if s.N() != 5 || s.Mean() != 21*ms || s.Min() != 5*ms || s.Max() != 40*ms {
		t.Fatalf("N/Mean/Min/Max = %d/%v/%v/%v after percentile reads", s.N(), s.Mean(), s.Min(), s.Max())
	}
}

func TestEmptySeriesAndZeroWindow(t *testing.T) {
	var s Series
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty series: N/Mean/Min/Max = %d/%v/%v/%v, want zeros", s.N(), s.Mean(), s.Min(), s.Max())
	}
	if got := Throughput(10, 0); got != 0 {
		t.Fatalf("Throughput over a zero window = %v, want 0", got)
	}
	if got := Throughput(10, 2*time.Second); got != 5 {
		t.Fatalf("Throughput(10, 2s) = %v, want 5", got)
	}
	if Ms(1500*time.Microsecond) != "1.50 ms" || Sec(2500*ms) != "2.50 s" || Ratio(1, 0) != "n/a" || Ratio(3, 2) != "1.50" {
		t.Fatal("formatters changed their output")
	}
}

func TestTableAlignsAndToleratesRaggedRows(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("xxx", "y")
	tb.AddRow("z") // fewer cells than the header
	want := "T\na    bb\n---------\nxxx  y \nz  \n"
	if got := tb.String(); got != want {
		t.Fatalf("table =\n%q\nwant\n%q", got, want)
	}
	// More cells than the header used to index past the width table.
	tb.AddRow("p", "q", "extra")
	if got := tb.String(); !strings.Contains(got, "p    q   extra\n") {
		t.Fatalf("row wider than the header rendered as:\n%s", got)
	}
}

func TestReplicaTableStates(t *testing.T) {
	rows := []ReplicaStats{
		{Device: "d0", Health: "dead", Active: true},
		{Device: "d1", Health: "suspect", Active: true},
		{Device: "d2", Health: "suspect"}, // out of rotation: reads inactive
		{Device: "d3", Health: "healthy", Active: true, Draining: true},
		{Device: "d4", Health: "healthy", Active: true, Placements: 3, KVDevPages: 7, KVHostPages: 2},
		{Device: "d5", Health: "healthy"},
	}
	tb := ReplicaTable(rows)
	want := []string{"dead", "suspect", "inactive", "draining", "active", "inactive"}
	for i, row := range tb.Rows {
		if row[0] != rows[i].Device || row[1] != want[i] {
			t.Errorf("row %d = %s/%s, want %s/%s", i, row[0], row[1], rows[i].Device, want[i])
		}
		if len(row) != len(tb.Header) {
			t.Errorf("row %d has %d cells under %d headers", i, len(row), len(tb.Header))
		}
	}
	if r := tb.Rows[4]; r[2] != "3" || r[9] != "7/2" {
		t.Errorf("active row placed/kv = %s, %s; want 3, 7/2", r[2], r[9])
	}
}
