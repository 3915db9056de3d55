package gpu

import (
	"slices"
	"testing"
	"time"

	"pie/internal/sim"
)

func TestSpecCalibrationAnchors(t *testing.T) {
	// Decode-step cost at batch 32 with ~400-token contexts must sit near
	// the paper's measured vLLM TPOTs (Table 4).
	anchors := map[string]time.Duration{
		"1B": 16830 * time.Microsecond,
		"3B": 30300 * time.Microsecond,
		"8B": 64060 * time.Microsecond,
	}
	for label, want := range anchors {
		s := SpecFor(label)
		got := s.ForwardCost(32, 0, 32*400) + s.FusedSampleCost(32)
		ratio := float64(got) / float64(want)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("%s: step cost %v vs paper %v (ratio %.2f)", label, got, want, ratio)
		}
	}
}

func TestSpecOrdering(t *testing.T) {
	s1, s3, s8 := SpecFor("1B"), SpecFor("3B"), SpecFor("8B")
	if !(s1.WeightStream < s3.WeightStream && s3.WeightStream < s8.WeightStream) {
		t.Fatal("weight stream not ordered by size")
	}
	if !(s1.PerTokenPrefill < s1.PerTokenDecode) {
		t.Fatal("prefill tokens should be cheaper than decode steps")
	}
}

func TestKvPageCapacityBinds(t *testing.T) {
	// The 8B model must fit far fewer cached tokens than 1B — the Fig. 7
	// contention lever.
	c1 := SpecFor("1B").KvPageCapacity(16)
	c8 := SpecFor("8B").KvPageCapacity(16)
	if c8*4 > c1 {
		t.Fatalf("8B capacity %d not much smaller than 1B %d", c8, c1)
	}
	if c8*16 < 40000 || c8*16 > 80000 {
		t.Fatalf("8B token capacity %d outside the expected ~60K", c8*16)
	}
	if SpecFor("8B").KvPageCapacity(1<<30) != 0 {
		t.Fatal("absurd page size should yield zero capacity")
	}
}

func TestBatchSharesWeightStream(t *testing.T) {
	s := SpecFor("1B")
	one := s.ForwardCost(1, 0, 0)
	thirtyTwo := s.ForwardCost(32, 0, 0)
	if thirtyTwo > 2*one {
		t.Fatalf("batching broken: 32 seqs cost %v vs %v for one", thirtyTwo, one)
	}
}

// TestPrefillBudget: the budget is two weight streams' worth of prefill
// tokens, and that prefill costs no more than two weight streams.
func TestPrefillBudget(t *testing.T) {
	for label, want := range map[string]int{"1B": 500, "3B": 390, "8B": 320} {
		s := SpecFor(label)
		if got := s.PrefillBudget(); got != want {
			t.Errorf("%s: PrefillBudget = %d, want %d", label, got, want)
		}
		if extra := s.ForwardCost(0, s.PrefillBudget(), 0) - s.ForwardCost(0, 0, 0); extra > 2*s.WeightStream {
			t.Errorf("%s: the budget's prefill costs %v, past two weight streams (%v)", label, extra, 2*s.WeightStream)
		}
	}
}

func TestDeviceSerializesKernels(t *testing.T) {
	clock := sim.NewClock()
	d := NewDevice(clock, "t")
	var ends [3]time.Duration
	d.SetDoneFunc(func(tag any) { ends[tag.(int)] = clock.Now() })
	clock.Go("driver", func() {
		for i := range ends {
			d.Enqueue(10*time.Millisecond, i)
		}
		clock.Sleep(time.Second)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []time.Duration{10, 20, 30} {
		if ends[i] != want*time.Millisecond {
			t.Fatalf("kernel %d ended at %v, want %vms", i, ends[i], want)
		}
	}
	if d.BusyTime() != 30*time.Millisecond {
		t.Fatalf("busy time %v", d.BusyTime())
	}
	if d.Kernels() != 3 {
		t.Fatalf("kernels %d", d.Kernels())
	}
}

func TestDeviceIdleNotification(t *testing.T) {
	clock := sim.NewClock()
	d := NewDevice(clock, "t")
	idleAt := time.Duration(-1)
	d.SetIdleFunc(func() { idleAt = clock.Now() })
	d.SetDoneFunc(func(any) {})
	clock.Go("driver", func() {
		d.Enqueue(5*time.Millisecond, "k")
		clock.Sleep(6 * time.Millisecond)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if idleAt != 5*time.Millisecond {
		t.Fatalf("idle fired at %v, want 5ms", idleAt)
	}
	if !d.Idle() {
		t.Fatal("device not idle after drain")
	}
}

func TestArtifactCost(t *testing.T) {
	s := SpecFor("1B")
	// Calibration: a Table 2 binary (129 KB) pays ~26 ms of upload + JIT
	// on a cold launch, reproducing Fig. 9's cold-vs-warm gap.
	got := s.ArtifactCost(129 << 10)
	want := time.Duration(129<<10) * 200 * time.Nanosecond
	if got != want {
		t.Fatalf("ArtifactCost(129KB) = %v, want %v", got, want)
	}
	if s.ArtifactCost(0) != 0 || s.ArtifactCost(-1) != 0 {
		t.Fatal("empty binaries must cost nothing")
	}
	if s.ArtifactCacheBytes <= 0 {
		t.Fatal("default artifact cache capacity must be positive")
	}
}

// TestDeviceQueueOrderAndIdleOncePerDrain: kernels complete in submission
// order, each costs one event, and the idle callback runs once per drain —
// after the last completion, not between queued kernels.
func TestDeviceQueueOrderAndIdleOncePerDrain(t *testing.T) {
	clock := sim.NewClock()
	d := NewDevice(clock, "t")
	var got []string
	d.SetDoneFunc(func(tag any) { got = append(got, tag.(string)) })
	d.SetIdleFunc(func() {
		if !d.Idle() {
			t.Error("idle callback on a device that is not drained")
		}
		got = append(got, "idle")
	})
	clock.Go("driver", func() {
		d.Enqueue(time.Millisecond, "a")
		d.Enqueue(time.Millisecond, "b")
		d.Enqueue(time.Millisecond, "c")
		if !d.Busy() || d.Idle() || d.Due() != time.Millisecond || d.Drain() != 3*time.Millisecond {
			t.Errorf("after three submissions: busy=%v idle=%v due=%v drain=%v", d.Busy(), d.Idle(), d.Due(), d.Drain())
		}
		// The queued kernels drain at the slowdown in force now.
		d.SetSlowdown(2)
		if d.Drain() != 5*time.Millisecond || d.Price(time.Millisecond) != 2*time.Millisecond {
			t.Errorf("slowed: drain=%v price=%v, want 5ms and 2ms", d.Drain(), d.Price(time.Millisecond))
		}
		d.SetSlowdown(1)
		clock.Sleep(10 * time.Millisecond)
		if d.Drain() != clock.Now() {
			t.Errorf("idle device drains at %v, want now (%v)", d.Drain(), clock.Now())
		}
		before := clock.Events()
		d.Enqueue(time.Millisecond, "d")
		clock.Sleep(10 * time.Millisecond)
		if n := clock.Events() - before; n != 2 {
			t.Errorf("a kernel and the sleep around it took %d events, want 2", n)
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c", "idle", "d", "idle"}; !slices.Equal(got, want) {
		t.Fatalf("completions %v, want %v", got, want)
	}
}
