package gpu

// Device fault-model tests: crash-stop (Fail) strands kernels without
// deadlocking the simulation, slowdown multiplies kernel cost, and the
// auxiliary cost functions price sanely. The cluster health layer builds
// its detection contract on exactly these behaviors.

import (
	"testing"
	"time"

	"pie/internal/sim"
)

func TestSpecAuxCosts(t *testing.T) {
	s := SpecFor("1B")
	if s.EmbedCost(64) <= s.EmbedCost(0) {
		t.Fatal("EmbedCost not monotonic in tokens")
	}
	if s.SampleCost(8) <= s.SampleCost(0) {
		t.Fatal("SampleCost not monotonic in seqs")
	}
	if got := s.PageBytes(16); got != 16*s.KvBytesPerToken {
		t.Fatalf("PageBytes(16) = %d, want %d", got, 16*s.KvBytesPerToken)
	}
	if s.SwapCost(0, 16) != 0 {
		t.Fatal("SwapCost of zero pages should be free")
	}
	if s.SwapCost(2, 16) <= s.HostXferSetup {
		t.Fatal("SwapCost must exceed the DMA setup floor")
	}
	if s.KvOpCost(128) <= s.KvOpCost(0) {
		t.Fatal("KvOpCost not monotonic in tokens")
	}
}

func TestDeviceSlowdownMultipliesKernelCost(t *testing.T) {
	clock := sim.NewClock()
	d := NewDevice(clock, "throttled")
	var slowEnd, fullEnd time.Duration
	d.SetDoneFunc(func(tag any) {
		if tag == "slow" {
			slowEnd = clock.Now()
			d.SetSlowdown(1)
			d.Enqueue(10*time.Millisecond, "full")
			return
		}
		fullEnd = clock.Now()
	})
	clock.Go("driver", func() {
		d.SetSlowdown(4)
		if d.Slowdown() != 4 {
			t.Errorf("Slowdown() = %v, want 4", d.Slowdown())
		}
		d.Enqueue(10*time.Millisecond, "slow")
		clock.Sleep(time.Second)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if slowEnd != 40*time.Millisecond {
		t.Fatalf("slowed kernel finished at %v, want 40ms", slowEnd)
	}
	if fullEnd-slowEnd != 10*time.Millisecond {
		t.Fatalf("restored kernel took %v, want 10ms", fullEnd-slowEnd)
	}
}

func TestDeviceFailMidKernelGoesDark(t *testing.T) {
	clock := sim.NewClock()
	d := NewDevice(clock, "crash-busy")
	d.SetDoneFunc(func(tag any) { t.Errorf("kernel %v completed on a dead device", tag) })
	d.Enqueue(10*time.Millisecond, "doomed")
	clock.Go("killer", func() {
		clock.Sleep(5 * time.Millisecond)
		if !d.Busy() {
			t.Error("device should be mid-kernel at 5ms")
		}
		d.Fail()
		if !d.Failed() {
			t.Error("Failed() false after Fail()")
		}
	})
	// The stranded kernel must not deadlock the run: the dead device parks.
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Kernels() != 0 {
		t.Fatalf("crash-stopped device completed %d kernels", d.Kernels())
	}
}

func TestDeviceFailWhileIdleParksNextKernel(t *testing.T) {
	clock := sim.NewClock()
	d := NewDevice(clock, "crash-idle")
	d.SetDoneFunc(func(tag any) { t.Errorf("kernel %v completed on a dead device", tag) })
	clock.Go("driver", func() {
		d.Fail()
		d.Enqueue(time.Millisecond, "never")
		clock.Sleep(5 * time.Millisecond)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Kernels() != 0 || d.BusyTime() != 0 {
		t.Fatalf("dead device did work: kernels=%d busy=%v", d.Kernels(), d.BusyTime())
	}
}

// TestDeviceFailStrandsTheQueue: a crash mid-kernel loses that kernel,
// everything queued behind it and everything submitted after it; the device
// stays busy with its last due instant (what the watchdog dates a stall
// from) and never calls back.
func TestDeviceFailStrandsTheQueue(t *testing.T) {
	clock := sim.NewClock()
	d := NewDevice(clock, "crash-queued")
	d.SetDoneFunc(func(tag any) { t.Errorf("kernel %v completed on a dead device", tag) })
	d.SetIdleFunc(func() { t.Error("a dead device reported idle") })
	d.Enqueue(10*time.Millisecond, "doomed")
	d.Enqueue(10*time.Millisecond, "queued")
	clock.Go("killer", func() {
		clock.Sleep(5 * time.Millisecond)
		d.Fail()
		d.Enqueue(time.Millisecond, "late")
		clock.Sleep(time.Second)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Kernels() != 0 || d.BusyTime() != 0 || !d.Busy() || d.Idle() || d.Due() != 10*time.Millisecond {
		t.Fatalf("dead device: kernels=%d busy=%v/%v idle=%v due=%v", d.Kernels(), d.BusyTime(), d.Busy(), d.Idle(), d.Due())
	}
}

// TestDeviceSlowdownAppliesAtKernelStart: a kernel keeps the price it started
// at; the ones queued behind it start at the factor in force by then.
func TestDeviceSlowdownAppliesAtKernelStart(t *testing.T) {
	clock := sim.NewClock()
	d := NewDevice(clock, "throttled-midway")
	var ends []time.Duration
	d.SetDoneFunc(func(any) { ends = append(ends, clock.Now()) })
	clock.Go("driver", func() {
		for i := 0; i < 3; i++ {
			d.Enqueue(10*time.Millisecond, i)
		}
		clock.Sleep(5 * time.Millisecond)
		d.SetSlowdown(2)
		if d.Due() != 10*time.Millisecond {
			t.Errorf("running kernel now due at %v, want 10ms", d.Due())
		}
		clock.Sleep(10 * time.Millisecond) // second kernel running, at 2x
		d.SetSlowdown(0)
		clock.Sleep(time.Second)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond}
	if len(ends) != 3 || ends[0] != want[0] || ends[1] != want[1] || ends[2] != want[2] {
		t.Fatalf("kernels ended at %v, want %v", ends, want)
	}
	if d.BusyTime() != 40*time.Millisecond {
		t.Fatalf("busy time %v, want 40ms", d.BusyTime())
	}
}

// TestDropHandsOverWhatAFailedDeviceHeld: Drop leaves a live device alone;
// on a failed one it hands over the kernel that was executing and then the
// queued ones, oldest first, and forgets them.
func TestDropHandsOverWhatAFailedDeviceHeld(t *testing.T) {
	clock := sim.NewClock()
	d := NewDevice(clock, "doomed")
	var done, dropped []any
	d.SetDoneFunc(func(tag any) { done = append(done, tag) })
	clock.Go("driver", func() {
		d.Enqueue(time.Millisecond, "finished")
		d.Enqueue(time.Millisecond, "running")
		d.Enqueue(time.Millisecond, "queued")
		clock.Sleep(1500 * time.Microsecond)
		d.Drop(func(tag any) { t.Errorf("a live device dropped %v", tag) })
		d.Fail()
		d.Drop(func(tag any) { dropped = append(dropped, tag) })
		d.Drop(func(tag any) { t.Errorf("%v dropped twice", tag) })
		clock.Sleep(time.Second)
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0] != "finished" {
		t.Fatalf("completed %v, want only the kernel finished before the failure", done)
	}
	if len(dropped) != 2 || dropped[0] != "running" || dropped[1] != "queued" {
		t.Fatalf("dropped %v, want [running queued]", dropped)
	}
}
