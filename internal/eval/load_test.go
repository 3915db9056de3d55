package eval

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"pie"
	"pie/inferlet"
	"pie/internal/benchfmt"
)

// loadEngine is a small timing-mode engine with a probe inferlet that
// messages the client, works for 5 ms, and fails when told to.
func loadEngine() *pie.Engine {
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming, ClientRTT: clientRTT})
	e.MustRegister(inferlet.Program{
		Name: "probe", BinarySize: 4 << 10,
		Run: func(s inferlet.Session) error {
			s.Send("hello")
			s.Sleep(5 * time.Millisecond)
			if args := s.GetArg(); len(args) > 0 && args[0] == "fail" {
				return errors.New("told to fail")
			}
			return nil
		},
	})
	return e
}

func TestRunLoadLaunchesEveryTaskOfEveryClass(t *testing.T) {
	e := loadEngine()
	var order []string // spec calls, in the order the clients made them
	var outs [2][]outcome
	class := func(i int, name string, clients, tasks int, ack bool) loadClass {
		return loadClass{
			name: name, clients: clients, tasks: tasks, ack: ack,
			spec: func(task int) pie.LaunchSpec {
				order = append(order, fmt.Sprintf("%s%d", name, task))
				return pie.Spec("probe")
			},
			done: func(o outcome) { outs[i] = append(outs[i], o) },
		}
	}
	const tail = 70 * time.Millisecond
	start, makespan := runLoad(e, "test", pie.Spec("probe"), tail,
		class(0, "a", 2, 5, true), class(1, "b", 3, 4, false))

	// Clients start in declaration order: a's two, then b's three.
	if want := []string{"a0", "a1", "b0", "b1", "b2"}; !reflect.DeepEqual(order[:5], want) {
		t.Errorf("first launches %v, want %v", order[:5], want)
	}
	for i, want := range []int{5, 4} {
		var tasks []int
		for _, o := range outs[i] {
			if o.Err != nil || o.H == nil {
				t.Errorf("class %d task %d: err %v, handle %v", i, o.Task, o.Err, o.H)
			}
			tasks = append(tasks, o.Task)
		}
		sort.Ints(tasks)
		for task := 0; task < want; task++ {
			if task >= len(tasks) || tasks[task] != task {
				t.Fatalf("class %d ran tasks %v, want each of 0..%d once", i, tasks, want-1)
			}
		}
	}
	// An ack class reads the first message; a class without ack never calls
	// Recv, so the message is still queued on its handles.
	for _, o := range outs[0] {
		if o.Msg != "hello" || o.First <= o.T0 || o.First > o.End {
			t.Errorf("ack task %d: msg %q, t0 %v first %v end %v", o.Task, o.Msg, o.T0, o.First, o.End)
		}
		if _, queued := o.H.TryRecv(); queued {
			t.Errorf("ack task %d: its message was not received", o.Task)
		}
	}
	for _, o := range outs[1] {
		if o.First != 0 || o.Msg != "" {
			t.Errorf("no-ack task %d: first %v msg %q", o.Task, o.First, o.Msg)
		}
		if msg, queued := o.H.TryRecv(); !queued || msg != "hello" {
			t.Errorf("no-ack task %d: message consumed (%q, %v)", o.Task, msg, queued)
		}
	}
	// The makespan runs from the end of the warm-up to the last completion;
	// the tail follows it.
	var first, last time.Duration = 1 << 62, 0
	for _, o := range append(outs[0], outs[1]...) {
		first, last = min(first, o.T0), max(last, o.End)
	}
	if start <= 0 || first != start {
		t.Errorf("start %v, first launch at %v: the warm-up is not before the measured load", start, first)
	}
	if makespan != last-start {
		t.Errorf("makespan %v, want %v (last completion - start)", makespan, last-start)
	}
	if e.Now() != start+makespan+tail {
		t.Errorf("clock ended at %v, want start+makespan+tail = %v", e.Now(), start+makespan+tail)
	}
}

func TestRunLoadRetriesUpToAttempts(t *testing.T) {
	e := loadEngine()
	calls := map[int]int{} // task -> done calls
	afterSuccess := 0
	succeeded := map[int]bool{}
	_, makespan := runLoad(e, "test", pie.LaunchSpec{}, 0, loadClass{
		name: "c", clients: 2, tasks: 6, attempts: 3,
		spec: func(task int) pie.LaunchSpec {
			switch {
			case task == 1: // refused at launch, every time
				return pie.Spec("no_such_program")
			case task == 2: // runs and fails, every time
				return pie.Spec("probe", "fail")
			case task == 3 && calls[3] == 0: // fails once, then succeeds
				return pie.Spec("probe", "fail")
			}
			return pie.Spec("probe")
		},
		done: func(o outcome) {
			if succeeded[o.Task] {
				afterSuccess++
			}
			calls[o.Task]++
			succeeded[o.Task] = o.Err == nil
			switch o.Task {
			case 1:
				if o.H != nil || !errors.Is(o.Err, pie.ErrNoSuchProgram) {
					t.Errorf("task 1: handle %v err %v, want a refused launch", o.H, o.Err)
				}
			case 2:
				if o.H == nil || o.Err == nil {
					t.Errorf("task 2: handle %v err %v, want a failed run", o.H, o.Err)
				}
			}
		},
	})
	if want := map[int]int{0: 1, 1: 3, 2: 3, 3: 2, 4: 1, 5: 1}; !reflect.DeepEqual(calls, want) {
		t.Errorf("done calls per task %v, want %v", calls, want)
	}
	if afterSuccess != 0 {
		t.Errorf("done called %d times for a task that had already succeeded", afterSuccess)
	}
	if makespan <= 0 {
		t.Errorf("makespan %v", makespan)
	}
}

// The experiment table is what BENCH_sim.json is generated from: same ids
// in the same order, and for every experiment the same headline keys — so
// a stale baseline fails here before CI's bench-gate job.
func TestExperimentsMatchCommittedBaseline(t *testing.T) {
	blob, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var base benchfmt.Report
	if err := json.Unmarshal(blob, &base); err != nil {
		t.Fatal(err)
	}
	table := Experiments()
	if len(table) != len(base.Experiments) {
		t.Fatalf("%d experiments, BENCH_sim.json has %d", len(table), len(base.Experiments))
	}
	o := Options{Seed: base.Seed, Quick: base.Quick}
	seen := map[string]bool{}
	for i, x := range table {
		if seen[x.ID] {
			t.Errorf("id %q twice", x.ID)
		}
		seen[x.ID] = true
		if x.ID != base.Experiments[i].ID {
			t.Fatalf("experiment %d is %q, BENCH_sim.json has %q there", i, x.ID, base.Experiments[i].ID)
		}
		got, want := keys(x.Run(o).Headline()), keys(base.Experiments[i].Headline)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: headline keys %v, BENCH_sim.json has %v", x.ID, got, want)
		}
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
