package main

import (
	"math"
	"strings"
	"time"
)

// rng is splitmix64: every input the benchmark generates — arrival
// schedules, prompt lengths, the app mix — comes from one of these seeded
// from -seed, so the same seed gives the same inputs on any Go version.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xBF58476D1CE4E5B9}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform number in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// between returns a uniform integer in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

// poissonSchedule returns n due instants of a Poisson process of the given
// rate (per second), measured from the start of the load.
func poissonSchedule(r *rng, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += -math.Log(1-r.float()) / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

var words = strings.Fields(`the of and to in is that for it as was with be by on not he this are or his
from at which but have an had they you were their one all we can her has there been if more when will would
who so no out up said what its about than into them only other new some could time these two may then do
first any my now such like our over man me even most made after also did many before must through back years
where much your way well down should because each just those people how too little state good very make world
still own see men work long get here between both life being under never day same another know while last`)

// prose returns n words drawn from the list, unshared between sessions.
func prose(r *rng, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(words[r.next()%uint64(len(words))])
	}
	return b.String()
}

// warm launches one short session of each program before the load starts,
// so the measured sessions find the program artifact warm (users pay the
// cold launch once per deployment, not per request; ilm.cold_launch_share
// reports the ones that still ran cold).
func warm(e *engine, reqs ...sessionReq) {
	for i, r := range reqs {
		r.ID = -1 - i
		r.Due = e.now()
		e.serve(r)
	}
}

// openLoop issues every request at its due instant, each from its own sim
// process, so a launch that blocks never delays the next arrival. Due
// instants in reqs are offsets from the moment the load starts.
func openLoop(e *engine, reqs []sessionReq, recs []sessionRec) {
	base := e.now()
	for i := range reqs {
		i := i
		reqs[i].Due += base
		if d := reqs[i].Due - e.now(); d > 0 {
			e.sleep(d)
		}
		e.spawn("arrival", func() { recs[i] = e.serve(reqs[i]) })
	}
}

// closedLoop starts `clients` sim processes that each serve the next
// unserved request as soon as their previous one completes. A request is
// due the moment a client picks it up.
func closedLoop(e *engine, clients int, reqs []sessionReq, recs []sessionRec) {
	next := 0
	for c := 0; c < clients; c++ {
		e.spawn("client", func() {
			for next < len(reqs) {
				i := next
				next++
				reqs[i].Due = e.now()
				recs[i] = e.serve(reqs[i])
			}
		})
	}
}

// slo is a workload's latency limits; zero fields are not limits.
type slo struct {
	TTFT    time.Duration
	MeanGap time.Duration // session mean inter-token gap
	Task    time.Duration
}

// gaps returns a session's inter-token gaps in ms. skip drops that many
// leading gaps (kv_pressure's first gap is the program's own think time).
func gaps(r *sessionRec, skip int) sample {
	var out sample
	for i := 1 + skip; i < len(r.Tokens); i++ {
		out = append(out, ms(r.Tokens[i]-r.Tokens[i-1]))
	}
	return out
}

// meets reports whether a session met the limits. A session that failed,
// was refused, or delivered fewer tokens than asked misses every limit.
func (s slo) meets(r *sessionRec, skipGaps int) bool {
	if !r.ok() {
		return false
	}
	if s.TTFT > 0 && (len(r.Tokens) == 0 || r.Tokens[0]-r.Req.Due > s.TTFT) {
		return false
	}
	if s.MeanGap > 0 {
		if g := gaps(r, skipGaps); len(g) > 0 && mean(g) > ms(s.MeanGap) {
			return false
		}
	}
	if s.Task > 0 && r.End-r.Req.Due > s.Task {
		return false
	}
	return true
}

// latencies are the client-observed virtual timings of a set of sessions.
type latencies struct {
	TTFT, ITL, Task, FirstGap, Late sample
	Sent, Done, Failed              int
	InSLO                           int           // sessions that met the workload's SLO (set by virtualMetrics)
	Makespan                        time.Duration // first due instant to last completion
	Control, Infer, Output          int
}

// observe folds session records into latencies. ttftGroup and taskGroup
// name the Req.Group whose sessions feed TTFT/ITL and task latency ("" =
// every session).
func observe(recs []sessionRec, ttftGroup, taskGroup string, skipGaps int) latencies {
	var l latencies
	first, last := time.Duration(math.MaxInt64), time.Duration(0)
	for i := range recs {
		r := &recs[i]
		l.Sent++
		if r.Req.Due < first {
			first = r.Req.Due
		}
		if r.End > last {
			last = r.End
		}
		l.Late = append(l.Late, ms(r.Start-r.Req.Due))
		l.Control += r.Control
		l.Infer += r.Infer
		l.Output += r.Output
		if !r.ok() {
			l.Failed++
			continue
		}
		l.Done++
		if ttftGroup == "" || r.Req.Group == ttftGroup {
			if len(r.Tokens) > 0 {
				l.TTFT = append(l.TTFT, ms(r.Tokens[0]-r.Req.Due))
			}
			if len(r.Tokens) > 1 {
				l.FirstGap = append(l.FirstGap, ms(r.Tokens[1]-r.Tokens[0]))
			}
			l.ITL = append(l.ITL, gaps(r, skipGaps)...)
		}
		if taskGroup == "" || r.Req.Group == taskGroup {
			l.Task = append(l.Task, ms(r.End-r.Req.Due))
		}
	}
	if l.Sent > 0 {
		l.Makespan = last - first
	}
	return l
}
