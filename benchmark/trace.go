package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own code around a call into the system. Virtual-clock spans
// carry engine time; host-clock spans (the HTTP leg) carry time since the
// leg started.
type span struct {
	ID      int
	Parent  int // 0: a root
	Session int
	Name    string
	Start   time.Duration
	End     time.Duration
	Clock   string // "v" or "h"
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass pays one nil check per boundary.
type tracer struct {
	spans []span
	roots map[int]int // session id -> its root span, for spans recorded inside programs
}

func newTracer() *tracer { return &tracer{roots: make(map[int]int)} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, session int, at time.Duration) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Session: session, Name: name, Start: at, End: at, Clock: "v"})
	return len(t.spans)
}

func (t *tracer) end(id int, at time.Duration) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = at
}

// add records a finished span.
func (t *tracer) add(name string, parent, session int, start, end time.Duration) int {
	id := t.begin(name, parent, session, start)
	t.end(id, end)
	return id
}

// addHost records a finished host-clock span (times since the leg began).
func (t *tracer) addHost(name string, parent, session int, start, end time.Duration) int {
	id := t.add(name, parent, session, start, end)
	t.spans[id-1].Clock = "h"
	return id
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count
// once; a child reaching outside its parent is clipped).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// ledger folds a traced pass into per-name self-time totals and checks the
// per-session invariant: the self times of a session's span tree sum to the
// root span's duration. The residual is what does not (a child reaching
// outside its parent).
type ledger struct {
	SelfByName  map[string]time.Duration
	Sessions    int
	ResidualMax time.Duration
	ResidualSum time.Duration
}

func buildLedger(spans []span) ledger {
	self := selfTimes(spans)
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	root := func(i int) int {
		for spans[i].Parent != 0 {
			i = byID[spans[i].Parent]
		}
		return i
	}
	l := ledger{SelfByName: make(map[string]time.Duration)}
	sum := make(map[int]time.Duration)
	for i, s := range spans {
		r := root(i)
		if spans[r].Name != "session" {
			continue // client-track spans sit beside the tree, not in it
		}
		l.SelfByName[s.Name] += self[i]
		sum[r] += self[i]
	}
	for r, total := range sum {
		res := spans[r].End - spans[r].Start - total
		if res < 0 {
			res = -res
		}
		l.Sessions++
		l.ResidualSum += res
		if res > l.ResidualMax {
			l.ResidualMax = res
		}
	}
	return l
}

// durationsOf collects the durations in ms of every span with the name.
func durationsOf(spans []span, name string) sample {
	var out sample
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome/Perfetto trace-event JSON:
// complete ("X") events in microseconds, one track per session, with the
// span's parent, session and clock in args.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		Ts   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		pid := 1
		if s.Clock == "h" {
			pid = 2
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: pid, Tid: s.Session,
			Args: map[string]interface{}{
				"id": s.ID, "parent": s.Parent, "session": s.Session, "clock": s.Clock,
				"start": s.Start.String(), "end": s.End.String(),
			},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]interface{}{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
