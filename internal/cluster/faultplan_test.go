// White-box unit tests for the fault-injection plumbing: fault-plan
// parsing and rendering, config default normalization, the transient
// launch-failure stream, and the placeable fallback ladder. Engine-level
// behavior (death handling, requeue, chaos replay) lives in
// faults_test.go; these pin the pure pieces the CLI and config surface
// depend on.
package cluster

import (
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pie/api"
	"pie/internal/gpu"
	"pie/internal/infer"
	"pie/internal/sim"
)

func TestParseFaultPlanRoundTrip(t *testing.T) {
	spec := "crash:1@200ms,hang:2@300ms,slow:3@100ms*4"
	plan, err := ParseFaultPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) != 3 {
		t.Fatalf("parsed %d events, want 3", len(plan.Events))
	}
	want := []FaultEvent{
		{At: 200 * time.Millisecond, Replica: 1, Kind: FaultCrash},
		{At: 300 * time.Millisecond, Replica: 2, Kind: FaultHang},
		{At: 100 * time.Millisecond, Replica: 3, Kind: FaultSlow, Factor: 4},
	}
	for i, e := range plan.Events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	if got := plan.String(); got != spec {
		t.Fatalf("String() = %q, want round-trip of %q", got, spec)
	}
	// Whitespace and empty parts are tolerated; slow defaults its factor.
	plan, err = ParseFaultPlan(" slow:0@5ms , ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Events) != 1 || plan.Events[0].Factor != 4 {
		t.Fatalf("slow default factor: %+v", plan.Events)
	}
	if plan, err = ParseFaultPlan("  "); err != nil || !plan.Empty() {
		t.Fatalf("blank spec = %+v, %v; want empty plan", plan, err)
	}
}

func TestParseFaultPlanRejectsMalformed(t *testing.T) {
	for _, spec := range []string{
		"boom",               // no kind separator
		"explode:1@5ms",      // unknown kind
		"crash:1",            // missing @time
		"crash:x@5ms",        // bad replica
		"crash:-1@5ms",       // negative replica
		"slow:1@5ms*zero",    // bad factor
		"slow:1@5ms*0",       // non-positive factor
		"slow:1@5ms*0.5",     // a factor below 1 slows nothing
		"slow:1@5ms*1",       // and neither does 1
		"slow:1@5ms*NaN",     // not a number
		"slow:1@5ms*Inf",     // not finite
		"slow:1@5ms*1e300",   // a kernel's slowed cost overflows
		"slow:1@5ms*1000001", // past MaxSlowFactor
		"crash:1@5ms*2",      // a factor on a fault that is not slow
		"crash:1@sometime",   // bad time
		"crash:1@-5ms",       // negative time
		"crash:1@5ms,bogus",  // one bad event poisons the plan
	} {
		last := spec[strings.LastIndex(spec, ",")+1:]
		if _, err := ParseFaultPlan(spec); err == nil || !strings.Contains(err.Error(), strconv.Quote(last)) {
			t.Errorf("ParseFaultPlan(%q) = %v, want an error naming the event %q", spec, err, last)
		}
	}
}

// FuzzParseFaultPlan: every plan ParseFaultPlan accepts renders (String) to
// a spec that parses back to the same plan, and every event passes
// FaultEvent.Check with its factor explicit: a slow event's finite and
// within (1, MaxSlowFactor], any other's 0.
func FuzzParseFaultPlan(f *testing.F) {
	for _, spec := range []string{"crash:1@200ms,hang:2@300ms,slow:3@100ms*4", " slow:0@5ms , ,", "",
		"slow:0@1ms*NaN", "slow:0@1ms*Inf", "slow:0@1ms*1e300", "slow:2@1.5ms*0x1p+3", "crash:1@5ms*2", "HANG:+3@1h2m"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaultPlan(spec)
		if err != nil {
			return
		}
		for _, ev := range plan.Events {
			if err := ev.Check(); err != nil || (ev.Kind == FaultSlow) != (ev.Factor != 0) {
				t.Fatalf("%q: event %v has factor %v: %v", spec, ev, ev.Factor, err)
			}
		}
		again, err := ParseFaultPlan(plan.String())
		if err != nil || !reflect.DeepEqual(again, plan) {
			t.Fatalf("%q renders %q, which parses to %+v, %v; want %+v", spec, plan.String(), again, err, plan)
		}
	})
}

func TestFaultPlanEmpty(t *testing.T) {
	if !(FaultPlan{}).Empty() {
		t.Fatal("zero plan should be empty")
	}
	if (FaultPlan{CallFailRate: 0.1}).Empty() {
		t.Fatal("transient-rate plan should not be empty")
	}
	if (FaultPlan{Events: []FaultEvent{{Kind: FaultCrash}}}).Empty() {
		t.Fatal("event plan should not be empty")
	}
}

func TestFaultAndHealthStateStrings(t *testing.T) {
	for got, want := range map[string]string{
		FaultCrash.String():      "crash",
		FaultHang.String():       "hang",
		FaultSlow.String():       "slow",
		FaultKind(99).String():   "unknown",
		HealthHealthy.String():   "healthy",
		HealthSuspect.String():   "suspect",
		HealthDead.String():      "dead",
		HealthState(99).String(): "unknown",
		(FaultEvent{At: time.Millisecond, Replica: 2, Kind: FaultSlow, Factor: 2.5}).String(): "slow:2@1ms*2.5",
	} {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestRandomFaultPlanBounds(t *testing.T) {
	for _, degenerate := range []FaultPlan{
		RandomFaultPlan(1, 1, 4, 100*time.Millisecond), // nobody to spare
		RandomFaultPlan(1, 4, 0, 100*time.Millisecond), // no events
		RandomFaultPlan(1, 4, 4, 0),                    // no window
	} {
		if len(degenerate.Events) != 0 {
			t.Fatalf("degenerate plan has events: %v", degenerate.Events)
		}
	}
	plan := RandomFaultPlan(7, 4, 6, 100*time.Millisecond)
	if len(plan.Events) != 6 {
		t.Fatalf("got %d events, want 6", len(plan.Events))
	}
	for i, e := range plan.Events {
		if e.Replica == 0 {
			t.Fatal("replica 0 must never be faulted")
		}
		if e.At <= 0 || e.At > 100*time.Millisecond {
			t.Fatalf("event %d outside window: %v", i, e.At)
		}
		if i > 0 && plan.Events[i-1].At > e.At {
			t.Fatal("events not sorted by time")
		}
	}
}

func TestShedConfigDefaults(t *testing.T) {
	d := ShedConfig{}.withDefaults()
	if d.KVWatermark != 0.9 || d.QueueDepth != 96 {
		t.Fatalf("zero-value defaults = %+v", d)
	}
	if got := (ShedConfig{KVWatermark: 1.5}).withDefaults().KVWatermark; got != 0.9 {
		t.Fatalf("over-unity watermark normalized to %v, want 0.9", got)
	}
	keep := ShedConfig{Enabled: true, KVWatermark: 0.5, QueueDepth: 3}
	if keep.withDefaults() != keep {
		t.Fatalf("explicit config rewritten: %+v", keep.withDefaults())
	}
}

func TestHealthConfigDefaults(t *testing.T) {
	d := HealthConfig{}.withDefaults()
	want := HealthConfig{
		Interval: 5 * time.Millisecond, SuspectAfter: 10 * time.Millisecond,
		DeadAfter: 25 * time.Millisecond, HangTimeout: 250 * time.Millisecond,
	}
	if d != want {
		t.Fatalf("zero-value defaults = %+v, want %+v", d, want)
	}
	// DeadAfter must strictly exceed SuspectAfter, even when the suspect
	// window is set past the stock dead window.
	d = HealthConfig{SuspectAfter: 30 * time.Millisecond}.withDefaults()
	if d.DeadAfter != 60*time.Millisecond {
		t.Fatalf("DeadAfter = %v, want 2x SuspectAfter", d.DeadAfter)
	}
}

func TestLaunchFaultStream(t *testing.T) {
	// No plan installed: never faults.
	c := &Cluster{}
	if err := c.LaunchFault(); err != nil {
		t.Fatalf("no-plan LaunchFault = %v", err)
	}
	// Certain failure: every attempt faults typed, and is counted.
	c = &Cluster{faults: FaultPlan{CallFailRate: 1}, faultRNG: sim.NewRNG(1)}
	for i := 0; i < 3; i++ {
		if err := c.LaunchFault(); !errors.Is(err, api.ErrTransientFault) {
			t.Fatalf("attempt %d = %v, want ErrTransientFault", i, err)
		}
	}
	if c.TransientFaults != 3 {
		t.Fatalf("TransientFaults = %d, want 3", c.TransientFaults)
	}
}

func TestInjectFaultsRejectsOutOfRangeReplica(t *testing.T) {
	c := &Cluster{replicas: []*Replica{{ID: 0}}}
	plan := FaultPlan{Events: []FaultEvent{{Replica: 5, Kind: FaultCrash}}}
	if err := c.InjectFaults(plan); err == nil {
		t.Fatal("out-of-range fault event accepted")
	}
	// A pure transient-rate plan arms no timer: c has no clock, so an
	// armed timer would panic.
	if err := c.InjectFaults(FaultPlan{CallFailRate: 0.5, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if c.faultRNG == nil {
		t.Fatal("transient stream not armed")
	}
	// A plan built in code gets ParseFaultPlan's event checks: nothing it
	// rejects reaches the device's slowdown or the clock.
	checked := &Cluster{clock: sim.NewClock(), replicas: []*Replica{{ID: 0}}}
	for _, ev := range []FaultEvent{
		{Kind: FaultSlow, Factor: math.NaN()},
		{Kind: FaultSlow, Factor: math.Inf(1)},
		{Kind: FaultSlow, Factor: math.Inf(-1)},
		{Kind: FaultSlow, Factor: 1e300},
		{Kind: FaultSlow, Factor: MaxSlowFactor + 1},
		{Kind: FaultSlow, Factor: -2},
		{Kind: FaultSlow, Factor: 0.5},
		{Kind: FaultCrash, Factor: 2},
		{Kind: FaultHang, Factor: 4},
		{Kind: FaultCrash, At: -time.Millisecond},
		{Kind: FaultKind(7)},
	} {
		if err := checked.InjectFaults(FaultPlan{Events: []FaultEvent{ev}}); err == nil {
			t.Errorf("InjectFaults accepted %v (factor %v)", ev, ev.Factor)
		}
	}
	// A zero slow factor is the default, 4; MaxSlowFactor is allowed.
	clock := sim.NewClock()
	dev := gpu.NewDevice(clock, "g")
	slowed := &Cluster{clock: clock, replicas: []*Replica{{Backend: &infer.Backend{Device: dev}}}}
	if err := slowed.InjectFaults(FaultPlan{Events: []FaultEvent{{At: time.Millisecond, Kind: FaultSlow}}}); err != nil {
		t.Fatal(err)
	}
	clock.Go("wait", func() { clock.Sleep(2 * time.Millisecond) })
	if err := clock.Run(); err != nil || dev.Slowdown() != 4 {
		t.Fatalf("a slow event of factor 0 left slowdown %v (%v), want 4", dev.Slowdown(), err)
	}
	if err := (FaultEvent{Kind: FaultSlow, Factor: MaxSlowFactor}).Check(); err != nil {
		t.Fatal(err)
	}
}

func TestAdmitLaunchWithNoServingReplica(t *testing.T) {
	c := &Cluster{replicas: []*Replica{{health: HealthDead}}}
	c.EnableShedding(ShedConfig{})
	if c.HealthEnabled() {
		t.Fatal("shedding must not arm the health monitor")
	}
	if _, err := c.AdmitLaunch("", 0); err != nil {
		t.Fatalf("high-priority launch gated: %v", err)
	}
	if _, err := c.AdmitLaunch("", -1); !errors.Is(err, api.ErrOverloaded) {
		t.Fatalf("best-effort with no live replica = %v, want ErrOverloaded", err)
	}
	if c.Sheds != 1 {
		t.Fatalf("Sheds = %d, want 1", c.Sheds)
	}
	// Shedding disabled: everything admits.
	c2 := &Cluster{}
	if _, err := c2.AdmitLaunch("", -1); err != nil {
		t.Fatalf("disabled guard shed a launch: %v", err)
	}
}

func TestAdmitLaunchWithSpareActivating(t *testing.T) {
	// Regression: zero healthy *serving* replicas but a live spare (dead
	// primary, inactive healthy spare — the window while recovery
	// activates it). The old guard shed best-effort traffic vacuously
	// here; the mean-depth computation also divided by zero. Placement
	// will revive the spare, so the launch must admit.
	c := &Cluster{replicas: []*Replica{
		{ID: 0, active: true, health: HealthDead},
		{ID: 1, active: false, health: HealthHealthy},
	}}
	c.EnableShedding(ShedConfig{})
	if _, err := c.AdmitLaunch("", -1); err != nil {
		t.Fatalf("best-effort shed while a live spare exists: %v", err)
	}
	if c.Sheds != 0 {
		t.Fatalf("Sheds = %d, want 0 (vacuous shed)", c.Sheds)
	}
	// A draining-but-healthy replica is likewise revivable, not gone.
	c2 := &Cluster{replicas: []*Replica{{ID: 0, active: true, draining: true, health: HealthHealthy}}}
	c2.EnableShedding(ShedConfig{})
	if _, err := c2.AdmitLaunch("", -1); err != nil {
		t.Fatalf("best-effort shed while a draining replica exists: %v", err)
	}
	// Crashed spare does not count as live: genuinely out of hardware.
	c3 := &Cluster{replicas: []*Replica{
		{ID: 0, active: true, health: HealthDead},
		{ID: 1, active: false, health: HealthHealthy, crashed: true},
	}}
	c3.EnableShedding(ShedConfig{})
	if _, err := c3.AdmitLaunch("", -1); !errors.Is(err, api.ErrOverloaded) {
		t.Fatal("no live replica anywhere: best-effort must shed")
	}
}

func TestPlaceableFallbackLadder(t *testing.T) {
	healthy := &Replica{ID: 0, active: true, health: HealthHealthy}
	suspect := &Replica{ID: 1, active: true, health: HealthSuspect}
	dead := &Replica{ID: 2, active: true, health: HealthDead}
	c := &Cluster{replicas: []*Replica{healthy, suspect, dead}, policy: PlaceRoundRobin}
	if c.Policy() != PlaceRoundRobin {
		t.Fatal("Policy() mismatch")
	}
	if got := c.placeable(); len(got) != 1 || got[0] != healthy {
		t.Fatalf("healthy present: placeable = %v", got)
	}
	// No healthy serving replica: suspects serve as a last resort.
	c.BeginDrain(healthy)
	if got := c.placeable(); len(got) != 1 || got[0] != suspect {
		t.Fatalf("suspect fallback: placeable = %v", got)
	}
	// Nothing live but a drained healthy replica: revive it.
	suspect.health = HealthDead
	if got := c.placeable(); len(got) != 1 || got[0] != healthy {
		t.Fatalf("revive fallback: placeable = %v", got)
	}
	if !healthy.active || healthy.draining {
		t.Fatal("revived replica not marked serving")
	}
	// Everything dead: placement must fail upstream.
	healthy.health = HealthDead
	healthy.crashed = true
	if got := c.placeable(); len(got) != 0 {
		t.Fatalf("all-dead cluster still placeable: %v", got)
	}
}
