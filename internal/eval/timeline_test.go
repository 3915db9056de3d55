package eval

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"pie"
	"pie/internal/trace"
)

// The session key joins the two record streams: every session's spans and
// place/handoff records fold into one timeline per key, and each client's
// view of its launch joins it through pie.Handle.Session.

// event is one record of a session's timeline, from either stream.
type event struct {
	d    *trace.Decision
	s    *trace.Span
	when time.Duration
}

// timelines folds a leg's spans and place, handoff and upgrade-requeue
// records by session key, in the order they happened, and keeps each
// client's outcome by the same key. It taps the leg as an observer only.
type timelines struct {
	byKey    map[uint64][]event
	outcomes map[uint64]outcome
}

func (tl *timelines) tap(e *pie.Engine) func(outcome) {
	tl.byKey, tl.outcomes = map[uint64][]event{}, map[uint64]outcome{}
	cl := e.Cluster()
	prev := cl.OnDecision
	cl.OnDecision = func(d trace.Decision) {
		if prev != nil {
			prev(d)
		}
		switch d.Kind {
		case trace.Place, trace.Handoff, trace.HandoffDeny, trace.UpgradeRequeue:
			tl.byKey[d.Session] = append(tl.byKey[d.Session], event{d: &d, when: d.T})
		}
	}
	cl.OnSpan = func(s trace.Span) {
		if s.Kind != trace.Overhead {
			tl.byKey[s.Session] = append(tl.byKey[s.Session], event{s: &s, when: s.End})
		}
	}
	return func(o outcome) {
		if o.H != nil {
			tl.outcomes[o.H.Session()] = o
		}
	}
}

// fold walks every session's timeline and checks it: each attempt opens
// with one place on the replica its ttft, prefilled and itl spans then come
// from, has one ttft before any itl, and at most one handoff, after which
// its spans come from the handoff's destination; only an upgrade's requeue
// starts another attempt. A client's outcome names a session with a
// timeline and as many attempts as its handle made. It returns the number
// of sessions whose itl spans continued on a handoff's destination, the
// number that ran more than one attempt, and, per client that saw its
// first token, that client's TTFT less the folded one (the first ttft
// span's end, from the same launch instant).
func (tl *timelines) fold(t *testing.T) (continued, requeued int, gaps []time.Duration) {
	t.Helper()
	if evs := tl.byKey[0]; len(evs) > 0 {
		t.Fatalf("%d records carry no session key, the first %+v %+v", len(evs), evs[0].d, evs[0].s)
	}
	keys := make([]uint64, 0, len(tl.byKey))
	for k := range tl.byKey {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		attempts, handedOff, requeues, firstToken, err := walk(tl.byKey[k])
		if err != nil {
			t.Fatalf("session %d: %v", k, err)
		}
		if attempts != 1+requeues {
			t.Fatalf("session %d: %d attempts after %d upgrade requeues", k, attempts, requeues)
		}
		if handedOff > 0 {
			continued++
		}
		if attempts > 1 {
			requeued++
		}
		o, ok := tl.outcomes[k]
		if !ok {
			continue // the leg's warm-up launch
		}
		if got := o.H.Attempts(); got != attempts {
			t.Fatalf("session %d: the handle made %d attempts, the streams show %d", k, got, attempts)
		}
		if o.Msg == "first-token" {
			gaps = append(gaps, o.First-firstToken) // both TTFTs run from o.T0
		}
	}
	for k := range tl.outcomes {
		if _, ok := tl.byKey[k]; !ok {
			t.Fatalf("client session %d has no timeline", k)
		}
	}
	return continued, requeued, gaps
}

// walk checks one session's timeline and returns its attempts, how many of
// them had itl spans after a handoff, its upgrade requeues and the end of
// its first ttft span.
func walk(evs []event) (attempts, handedOff, requeues int, firstToken time.Duration, err error) {
	cur, ttfts, handoffs, itlOnDest := -1, 0, 0, false
	closeAttempt := func() error {
		if attempts > 0 && ttfts != 1 {
			return fmt.Errorf("attempt %d has %d ttft spans, want 1", attempts, ttfts)
		}
		if itlOnDest {
			handedOff++
		}
		return nil
	}
	for i, ev := range evs {
		if i > 0 && ev.when < evs[i-1].when {
			return 0, 0, 0, 0, fmt.Errorf("record %d at %v follows one at %v", i, ev.when, evs[i-1].when)
		}
		if d := ev.d; d != nil {
			switch d.Kind {
			case trace.Place:
				if err := closeAttempt(); err != nil {
					return 0, 0, 0, 0, err
				}
				attempts++
				cur, ttfts, handoffs, itlOnDest = d.Replica, 0, 0, false
			case trace.Handoff:
				if handoffs++; handoffs > 1 || d.Replica != cur || ttfts == 0 {
					return 0, 0, 0, 0, fmt.Errorf("handoff %+v in attempt %d, on replica %d after %d ttft spans", *d, attempts, cur, ttfts)
				}
				cur = d.Dest
			case trace.UpgradeRequeue:
				requeues++
			}
			continue
		}
		s := ev.s
		if s.Replica != cur {
			return 0, 0, 0, 0, fmt.Errorf("%s span on replica %d in attempt %d, which is on replica %d", s.Kind, s.Replica, attempts, cur)
		}
		switch s.Kind {
		case trace.TTFT:
			if ttfts++; attempts == 1 {
				firstToken = s.End
			}
		case trace.ITL:
			if ttfts == 0 {
				return 0, 0, 0, 0, fmt.Errorf("itl span before the ttft of attempt %d", attempts)
			}
			itlOnDest = itlOnDest || handoffs > 0
		}
	}
	err = closeAttempt()
	return attempts, handedOff, requeues, firstToken, err
}

// TestSessionTimelines: on the pd experiment's disaggregated leg and the
// fleet experiment's rolling-upgrade leg, each session's spans and records
// fold into one timeline under its key (timelines.fold). The pd leg's
// sessions decode on after their handoff under the same key, and the fleet
// leg requeues some sessions onto the new version under theirs. A client
// sees its first token after the fold does: the ttft span ends with the
// forward, and the client hears of the token when the get_next_dist batch
// that samples it completes, one batch later.
func TestSessionTimelines(t *testing.T) {
	o := Options{Quick: true}
	var pd, fl timelines
	runPDLeg(o, pdMixes()[1], true, pd.tap)
	runFleetLeg(o, fleetRolling, fl.tap)
	continued, _, pdGaps := pd.fold(t)
	_, requeued, flGaps := fl.fold(t)
	if continued == 0 || requeued == 0 {
		t.Fatalf("%d pd sessions decoded on after a handoff, %d fleet sessions were requeued; want some of each", continued, requeued)
	}
	for _, gaps := range [][]time.Duration{pdGaps, flGaps} {
		if len(gaps) == 0 {
			t.Fatal("no client saw its first token")
		}
		if lo := slices.Min(gaps); lo <= 0 {
			t.Fatalf("a client saw its first token %v before its ttft span ended", -lo)
		}
	}
	t.Logf("pd: %d sessions continued on the decode replica; client TTFT - folded TTFT over %d sessions: min %v median %v max %v",
		continued, len(pdGaps), slices.Min(pdGaps), median(pdGaps), slices.Max(pdGaps))
	t.Logf("fleet: %d sessions requeued; client TTFT - folded TTFT over %d sessions: min %v median %v max %v",
		requeued, len(flGaps), slices.Min(flGaps), median(flGaps), slices.Max(flGaps))
}

func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}
