package eval

import (
	"fmt"
	"time"

	"pie"
	"pie/internal/sim"
)

// loadClass is one class of closed-loop clients: `clients` processes draw
// the class's `tasks` task indices in order, and each launches spec(task)
// and waits for it before drawing the next.
type loadClass struct {
	name     string // client process name
	clients  int
	tasks    int
	attempts int // launches per task until one succeeds; 0 means 1
	// think, if set, seeds client w's think time: after drawing a task and
	// before launching it a client sleeps a uniform [0, thinkMS) ms.
	think   func(client int) *sim.RNG
	thinkMS int
	// spec runs in the client's process at the instant before the launch, so
	// a task that also acts on the engine (a manifest apply) acts there.
	spec func(task int) pie.LaunchSpec
	ack  bool          // await the inferlet's first message before Wait
	done func(outcome) // called once per attempt, in the client's process
}

// outcome is one launch attempt as its client observed it. Times are
// virtual clock readings.
type outcome struct {
	Task  int
	H     *pie.Handle // nil when the launch itself was refused
	Err   error       // from Launch, else from Wait
	T0    time.Duration
	First time.Duration // when the first message arrived; 0 without ack or message
	Msg   string        // that message
	End   time.Duration
}

// ackLatency is the client-observed launch → ack latency (Fig. 9
// methodology: the response leg is half the client RTT), and whether the
// launch was acked and ran to completion.
func (o outcome) ackLatency(e *pie.Engine) (time.Duration, bool) {
	return o.First - o.T0 + e.ClientRTT()/2, o.Err == nil && o.First > 0
}

// runLoad is the closed-loop load generator every experiment on a
// pie.Engine drives: one uncounted warm-up launch (skipped when warmup
// names no program) so steady-state numbers exclude cold JIT, then every
// class's clients spawned in declaration order. It runs the engine to
// completion and returns when the measured load began and how long it took
// to drain; tail keeps the clock alive past the makespan so drains,
// scale-downs and late frees land inside the run.
func runLoad(e *pie.Engine, what string, warmup pie.LaunchSpec, tail time.Duration, classes ...loadClass) (start, makespan time.Duration) {
	e.Go("loadgen", func() {
		if warmup.Program != "" {
			if h, err := e.Launch(warmup); err == nil {
				_ = h.Wait()
			}
		}
		start = e.Now()
		g := sim.NewGroup(e.Clock())
		for _, c := range classes {
			next := 0
			for w := 0; w < c.clients; w++ {
				var think *sim.RNG
				if c.think != nil {
					think = c.think(w)
				}
				g.Go(c.name, func() {
					for next < c.tasks {
						task := next
						next++
						if think != nil {
							e.Sleep(time.Duration(think.Intn(c.thinkMS)) * time.Millisecond)
						}
						for n := 0; n < max(c.attempts, 1); n++ {
							out := attempt(e, task, c.spec(task), c.ack)
							c.done(out)
							if out.Err == nil {
								break
							}
						}
					}
				})
			}
		}
		g.Wait()
		makespan = e.Now() - start
		if tail > 0 {
			e.Sleep(tail)
		}
	})
	if err := e.Run(); err != nil {
		panic(fmt.Sprintf("eval: %s run: %v", what, err))
	}
	return start, makespan
}

// attempt is one client's launch of spec: launch, await the first message
// if ack, wait.
func attempt(e *pie.Engine, task int, spec pie.LaunchSpec, ack bool) outcome {
	out := outcome{Task: task, T0: e.Now()}
	if out.H, out.Err = e.Launch(spec); out.Err == nil {
		if ack {
			if msg, err := out.H.Recv().Get(); err == nil {
				out.First, out.Msg = e.Now(), msg
			}
		}
		out.Err = out.H.Wait()
	}
	out.End = e.Now()
	return out
}
