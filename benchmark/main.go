// Command benchmark is the repo's benchmark: five workloads, two clocks, a
// per-layer ledger. See README.md and ../BENCHMARK.json.
//
//	go run ./benchmark -workload chat_open -seed 42 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*report, error)
}

var workloads = []workload{
	{"chat_open", "open-loop streaming completions on one replica: the batch former and the inference handlers do all the work", chatOpen},
	{"agent_closed", "closed-loop tool-calling agents beside chat users: messaging, tool waits and KV reuse, many small calls from many queues", agentClosed},
	{"kv_pressure", "KV demand at 1.5x the device pool: allocation, eviction to the host tier and fault-back instead of KV reuse", kvPressure},
	{"fleet_mixed", "interactive and batch classes on prefill and decode replicas: placement, handoff, priorities, heartbeats", fleetMixed},
	{"http_serve", "real tensor math served in process and by a pie-server child over HTTP: the only wall-clock serving path", httpServe},
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all)")
		seed     = flag.Uint64("seed", 42, "seed for every generated input")
		seconds  = flag.Int("seconds", 10, "size of the measured phase, in host seconds at the calibration commit")
		trace    = flag.String("trace", "", "0: end-to-end metrics (untraced pass); 1: per-layer metrics (adds the traced pass); default: both")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file as Chrome/Perfetto trace JSON")
		jsonOut  = flag.String("json", "", "write the full report (every metric, unit, clock, sample count) to this file")
		smoke    = flag.Bool("smoke", false, "tiny sizes, for tests")
	)
	flag.Parse()
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %q", *trace))
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds must be 1..60, got %d", *seconds))
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("no workload named %q", *name))
	}
	// A signal must not leave a pie-server child behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Layers: *trace != "0", Smoke: *smoke, TraceOut: *traceOut}
	ok := true
	var reports []*report
	for _, w := range selected {
		rep, err := w.run(cfg)
		if err != nil {
			killChildren()
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		rep.validate(*trace != "1", cfg.Layers)
		reports = append(reports, rep)
		printReport(rep, *trace)
		ok = ok && rep.correct()
	}
	if *jsonOut != "" {
		if err := writeFullJSON(*jsonOut, reports); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printReport prints every metric by name with unit, clock and sample
// count, then the one-line JSON result the driver reads.
func printReport(rep *report, trace string) {
	fmt.Printf("== %s seed %d: attempted %d failed %d correct %v\n", rep.Workload, rep.Seed, rep.Attempted, rep.Failed, rep.correct())
	line := map[string]map[string]interface{}{}
	emit := func(defs []metricDef, vals map[string]reading) {
		for _, d := range defs {
			v, ok := vals[d.Name]
			if !ok {
				continue
			}
			fmt.Printf("  %-36s %16.6f %-6s clock %s  n=%d\n", d.Name, v.Value, d.Unit, d.Clock, v.N)
			line[d.Name] = map[string]interface{}{"value": v.Value, "unit": d.Unit}
		}
	}
	if trace != "1" {
		emit(endToEnd, rep.E2E)
	}
	if trace != "0" {
		emit(perLayer, rep.Layer)
	}
	for _, n := range rep.Notes {
		fmt.Println("  note:", n)
	}
	for _, c := range rep.Checks {
		fmt.Println("  CHECK FAILED:", c)
	}
	out, err := json.Marshal(map[string]interface{}{
		"correct": rep.correct(), "attempted": rep.Attempted, "failed": rep.Failed, "metrics": line,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// writeFullJSON writes every report with units, clocks and sample counts.
func writeFullJSON(path string, reports []*report) error {
	type row struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Clock string  `json:"clock"`
		N     int     `json:"n"`
	}
	type doc struct {
		Workload  string   `json:"workload"`
		Seed      uint64   `json:"seed"`
		Correct   bool     `json:"correct"`
		Attempted int      `json:"attempted"`
		Failed    int      `json:"failed"`
		EndToEnd  []row    `json:"end_to_end"`
		PerLayer  []row    `json:"per_layer"`
		Checks    []string `json:"checks_failed"`
		Notes     []string `json:"notes"`
	}
	rows := func(defs []metricDef, vals map[string]reading) []row {
		var out []row
		for _, d := range defs {
			if v, ok := vals[d.Name]; ok {
				out = append(out, row{d.Name, v.Value, d.Unit, d.Clock, v.N})
			}
		}
		return out
	}
	var docs []doc
	for _, r := range reports {
		docs = append(docs, doc{r.Workload, r.Seed, r.correct(), r.Attempted, r.Failed,
			rows(endToEnd, r.E2E), rows(perLayer, r.Layer), r.Checks, r.Notes})
	}
	b, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
