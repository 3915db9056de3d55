// Command pie-bench regenerates the paper's evaluation tables and figures
// (§7) on the simulated testbed and prints them in paper style. It is a
// loop over eval.Experiments(): what an experiment runs, prints and reports
// as its headline lives in internal/eval.
//
// Usage:
//
//	pie-bench                  # run everything at full scale
//	pie-bench -quick           # CI-sized workloads
//	pie-bench -exp fig7,slo    # selected experiments (-exp is the only
//	                           # selector; `pie-bench -h` lists the ids, and
//	                           # an id it does not know is an error)
//	pie-bench -seed 7          # different deterministic seed
//	pie-bench -json-out BENCH_sim.json
//	                           # also write the JSON report (perf trajectory)
//	pie-bench -exp fig7 -cpuprofile cpu.prof -memprofile mem.prof
//	                           # host profiles of the run, for `go tool pprof`
//
// The JSON report records, per experiment and in total, the wall time,
// the number of virtual events processed, and events/sec — the headline
// replay-speed metric tracked across PRs (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"pie/internal/benchfmt"
	"pie/internal/eval"
	"pie/internal/sim"
)

// defaultSeed is also what eval.Options runs when handed a zero Seed.
const defaultSeed = 42

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	experiments := eval.Experiments()
	ids := make([]string, len(experiments))
	for i, x := range experiments {
		ids[i] = x.ID
	}

	fs := flag.NewFlagSet("pie-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run CI-sized workloads")
	seed := fs.Uint64("seed", defaultSeed, "deterministic seed for every experiment")
	exps := fs.String("exp", "all", "comma-separated experiment ids, or all ("+strings.Join(ids, ",")+")")
	jsonPath := fs.String("json-out", "", "write the JSON report (headlines, wall time and events/sec per experiment) to this path")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A zero seed runs the default: print and record the seed the run uses,
	// or bench-gate calls the report incomparable with its own baseline.
	if *seed == 0 {
		*seed = defaultSeed
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exps, ",") {
		id = strings.TrimSpace(id)
		want[id] = true
		if id != "all" && !slices.Contains(ids, id) {
			fmt.Fprintf(stderr, "pie-bench: unknown experiment %q in -exp; the ids are %s\n", id, strings.Join(ids, ","))
			return 2
		}
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "pie-bench:", err)
		return 1
	}

	o := eval.Options{Seed: *seed, Quick: *quick}
	rep := benchfmt.Report{Seed: *seed, Quick: *quick, GoMaxProcs: runtime.GOMAXPROCS(0)}
	suiteStart := time.Now()
	eventsStart := sim.TotalEvents()

	fmt.Fprintf(stdout, "pie-bench: reproducing the Pie (SOSP'25) evaluation  (seed=%d quick=%v)\n\n", *seed, *quick)
	for _, x := range experiments {
		if !want["all"] && !want[x.ID] {
			continue
		}
		start := time.Now()
		ev0, out0 := sim.TotalEvents(), eval.OutputDigest()
		r := x.Run(o)
		wall := time.Since(start)
		events := sim.TotalEvents() - ev0
		fmt.Fprintln(stdout, r.Table())
		fmt.Fprintf(stdout, "  [%s regenerated in %v wall time; %d events, %.0f events/sec]\n\n",
			x.ID, wall.Round(time.Millisecond), events, float64(events)/wall.Seconds())
		rep.Experiments = append(rep.Experiments, benchfmt.Experiment{
			ID:           x.ID,
			WallMS:       float64(wall) / float64(time.Millisecond),
			Events:       events,
			OutputDigest: eval.OutputDigest() - out0,
			EventsPerSec: float64(events) / wall.Seconds(),
			Headline:     r.Headline(),
		})
	}

	if err := stopProfiles(); err != nil {
		fmt.Fprintln(stderr, "pie-bench: write profile:", err)
		return 1
	}

	wall := time.Since(suiteStart)
	rep.TotalWallMS = float64(wall) / float64(time.Millisecond)
	rep.TotalEvents = sim.TotalEvents() - eventsStart
	rep.EventsPerSec = float64(rep.TotalEvents) / wall.Seconds()
	fmt.Fprintf(stdout, "suite: %v wall time, %d virtual events, %.0f events/sec (gomaxprocs=%d)\n",
		wall.Round(time.Millisecond), rep.TotalEvents, rep.EventsPerSec, rep.GoMaxProcs)

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "pie-bench: marshal report:", err)
			return 1
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "pie-bench: write report:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	return 0
}

// startProfiles begins the CPU profile (when cpuPath is set) and returns the
// function that ends it and writes the allocation profile (when memPath is
// set): what `go test -cpuprofile -memprofile` records, for a whole run.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // materialize all statistics
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
