// Package gpu simulates the hardware accelerator behind the inference
// layer: a single serially-executing device plus an analytical cost model
// per parameter class.
//
// Calibration. The paper's testbed is an NVIDIA L4 (24 GB) serving Llama 3
// at BF16 with FlashInfer kernels; its own measurements anchor the
// constants here:
//
//   - Table 4 gives monolithic-engine (vLLM) text-completion TPOT at 32
//     concurrent requests: 16.83 ms (1B), 30.30 ms (3B), 64.06 ms (8B).
//     A decode step over a batch B charges WeightStream plus
//     B·PerTokenDecode plus the KV reads; the constants below make the
//     vLLM simulation land on those numbers. Bulk prefill is compute-bound
//     and priced separately (PerTokenPrefill, several times cheaper).
//   - Table 3 itemizes Pie's decomposed-pipeline overheads; the dominant
//     term is the separate (non-pipelined) sampling kernel, represented by
//     SampleKernel plus a lost-overlap term that shrinks as forwards grow.
//   - Figure 10's inference-layer API overhead comes from the IPC boundary
//     (constant ~6 µs) plus single-threaded request deserialization that
//     scales with concurrent inferlets; see DeserPerCall.
//
// Memory geometry uses the real Llama-3 KV layouts (bytes/token) so KV
// capacity pressure matches the paper's setting: the 8B model fits ~60K
// cached tokens in 24 GB, making 128-agent workloads contend (Fig. 7).
package gpu

import (
	"time"

	"pie/internal/sim"
)

// Spec holds the timing and memory constants for one parameter class.
//
// Forward kernels have two per-token regimes: decode steps are
// memory-bound (each sequence's activations and KV stream per step, the
// marginal cost behind Table 4's batched TPOT), while bulk prefill is
// compute-bound and several times cheaper per token.
type Spec struct {
	Label string

	KernelLaunch    time.Duration // fixed per-kernel dispatch cost
	WeightStream    time.Duration // streaming all weights once per forward kernel
	PerTokenDecode  time.Duration // marginal cost per decode-step sequence
	PerTokenPrefill time.Duration // marginal cost per bulk prefill token
	KvReadPerTok    time.Duration // marginal cost per attended context token
	EmbedKernel     time.Duration // standalone embedding kernel
	EmbedPerTok     time.Duration
	SampleKernel    time.Duration // standalone sampling/distribution kernel
	SamplePerSeq    time.Duration
	KvOpKernel      time.Duration // alloc/copy/mask page operations

	// Host-memory KV offload (tiered cache): moving a page between device
	// and host pays one DMA setup per swap plus the page bytes over the
	// PCIe link. The L4 sits on PCIe Gen4 x16 — ~32 GB/s theoretical,
	// ~25 GB/s effective for pinned-host DMA.
	HostXferSetup    time.Duration // per-swap DMA/driver setup cost
	HostXferBytesSec int64         // effective PCIe bandwidth, bytes/sec

	// Program-artifact deployment (Fig. 9, Table 2): a cold launch uploads
	// the compiled Wasm binary and JIT-compiles it on the serving host.
	// Both charges scale with BinarySize; warm launches hit the replica's
	// artifact cache and skip them entirely.
	ArtifactUploadPerByte time.Duration // client->server upload (~100 MB/s)
	ArtifactJitPerByte    time.Duration // wasmtime JIT throughput (~5.3 MB/s)
	ArtifactCacheBytes    int64         // default warm-artifact cache capacity per replica

	TotalMemBytes   int64
	WeightBytes     int64
	KvBytesPerToken int64
	EmbedBytes      int64 // per embedding slot
}

// SpecFor returns the calibrated spec for a parameter label ("1B", "3B",
// "8B"). Unknown labels fall back to 1B.
func SpecFor(label string) Spec {
	const gb = int64(1) << 30
	base := Spec{
		Label:            label,
		KernelLaunch:     30 * time.Microsecond,
		EmbedKernel:      50 * time.Microsecond,
		EmbedPerTok:      600 * time.Nanosecond,
		SampleKernel:     800 * time.Microsecond,
		SamplePerSeq:     15 * time.Microsecond,
		KvOpKernel:       20 * time.Microsecond,
		HostXferSetup:    10 * time.Microsecond,
		HostXferBytesSec: 25 * (int64(1) << 30),
		// Calibrated so a Table 2 binary (~130 KB) pays ~26 ms cold
		// (upload + JIT), matching Fig. 9's cold-vs-warm gap. The default
		// cache holds every Table 2 artifact (~3 MB total) so single-replica
		// engines behave like the paper's always-cached ILM.
		ArtifactUploadPerByte: 10 * time.Nanosecond,
		ArtifactJitPerByte:    190 * time.Nanosecond,
		ArtifactCacheBytes:    8 << 20,
		TotalMemBytes:         24 * gb,
	}
	switch label {
	case "8B":
		base.WeightStream = 48 * time.Millisecond
		base.PerTokenDecode = 420 * time.Microsecond
		base.PerTokenPrefill = 300 * time.Microsecond
		base.KvReadPerTok = 190 * time.Nanosecond
		base.WeightBytes = 16 * gb
		base.KvBytesPerToken = 128 << 10 // 32 layers × 2 × 8 kv-heads × 128 dim × 2B
		base.EmbedBytes = 8192
	case "3B":
		base.WeightStream = 21500 * time.Microsecond
		base.PerTokenDecode = 230 * time.Microsecond
		base.PerTokenPrefill = 110 * time.Microsecond
		base.KvReadPerTok = 110 * time.Nanosecond
		base.WeightBytes = 6 * gb
		base.KvBytesPerToken = 72 << 10 // 28 layers × 2 × 8 × 128 × 2B (3.2-3B geometry)
		base.EmbedBytes = 6144
	default: // "1B"
		base.Label = "1B"
		base.WeightStream = 10 * time.Millisecond
		base.PerTokenDecode = 180 * time.Microsecond
		base.PerTokenPrefill = 40 * time.Microsecond
		base.KvReadPerTok = 60 * time.Nanosecond
		base.WeightBytes = 5 * gb / 2
		base.KvBytesPerToken = 32 << 10 // 16 layers × 2 × 8 × 64 × 2B
		base.EmbedBytes = 4096
	}
	return base
}

// KvPageCapacity returns how many pages of pageSize tokens fit beside the
// weights, reserving headroom for activations.
func (s Spec) KvPageCapacity(pageSize int) int {
	free := s.TotalMemBytes - s.WeightBytes - (2 << 30) // 2 GB activation headroom
	if free <= 0 {
		return 0
	}
	perPage := s.KvBytesPerToken * int64(pageSize)
	return int(free / perPage)
}

// ForwardCost prices one (possibly batched) forward kernel: decodeSeqs
// sequences advancing one step, prefillTokens bulk input tokens, attending
// over ctxTokens total context entries. The weight stream is paid once per
// kernel — this is the entire economics of batching (Table 5).
func (s Spec) ForwardCost(decodeSeqs, prefillTokens, ctxTokens int) time.Duration {
	return s.KernelLaunch + s.WeightStream +
		time.Duration(decodeSeqs)*s.PerTokenDecode +
		time.Duration(prefillTokens)*s.PerTokenPrefill +
		time.Duration(ctxTokens)*s.KvReadPerTok
}

// PrefillBudget is the most prefill tokens a forward that carries decode
// steps takes: what two weight streams cost (500 tokens on 1B, 390 on 3B,
// 320 on 8B), so a decode step that shares its kernel with prefill waits at
// most two weight streams longer for it.
func (s Spec) PrefillBudget() int {
	return int(2 * s.WeightStream / s.PerTokenPrefill)
}

// EmbedCost prices a batched embedding kernel.
func (s Spec) EmbedCost(tokens int) time.Duration {
	return s.KernelLaunch + s.EmbedKernel + time.Duration(tokens)*s.EmbedPerTok
}

// SampleCost prices a batched distribution/sampling kernel over seqs
// sequences.
func (s Spec) SampleCost(seqs int) time.Duration {
	return s.KernelLaunch + s.SampleKernel + time.Duration(seqs)*s.SamplePerSeq
}

// FusedSampleCost prices sampling when fused into the forward kernel
// (monolithic pipelines and the Table 3 ablation): the kernel launch and
// most of the sampling latency overlap with the forward pass.
func (s Spec) FusedSampleCost(seqs int) time.Duration {
	return time.Duration(seqs) * s.SamplePerSeq
}

// PageBytes returns the device footprint of one KV page of pageSize
// tokens.
func (s Spec) PageBytes(pageSize int) int64 {
	return s.KvBytesPerToken * int64(pageSize)
}

// SwapCost prices moving n KV pages of pageSize tokens across the PCIe
// link (host-memory offload, either direction): one DMA setup per swap
// operation plus the page bytes at link bandwidth.
func (s Spec) SwapCost(n, pageSize int) time.Duration {
	if n <= 0 {
		return 0
	}
	bytes := s.PageBytes(pageSize) * int64(n)
	xfer := time.Duration(float64(bytes) / float64(s.HostXferBytesSec) * float64(time.Second))
	return s.HostXferSetup + xfer
}

// ArtifactCost prices a cold program launch's deployment pipeline: upload
// the compiled binary, then JIT it on the serving host. Warm launches
// (artifact already cached on the replica) pay neither.
func (s Spec) ArtifactCost(binaryBytes int) time.Duration {
	if binaryBytes <= 0 {
		return 0
	}
	return time.Duration(binaryBytes) * (s.ArtifactUploadPerByte + s.ArtifactJitPerByte)
}

// KvOpCost prices page maintenance operations (copy/mask) over n tokens.
func (s Spec) KvOpCost(tokens int) time.Duration {
	return s.KvOpKernel + time.Duration(tokens)*200*time.Nanosecond
}

// Device is a serially-executing accelerator on the virtual clock. Kernels
// submitted while the device is busy queue FIFO. The device reports
// busy→idle transitions to an idle callback — the signal Pie's
// work-conserving batch scheduler is built on (§6.1).
//
// It is a state machine, not a process: start takes the oldest queued kernel
// and arms a clock timer for its cost, finish completes it and starts the
// next. A kernel costs one event.
type Device struct {
	clock    *sim.Clock
	name     string
	queue    sim.FIFO[kernel] // submitted, not yet started
	queued   time.Duration    // the queued kernels' modeled cost, before slowdown
	running  kernel           // executing, at the cost it started with
	busy     bool
	finishFn func() // d.finish, bound once: a timer is armed per kernel
	doneFn   func(tag any)
	idleFn   func()
	busyTime time.Duration
	kernels  int
	slowdown float64       // >1 multiplies every kernel cost (degraded device)
	failed   bool          // crash-stopped: never starts or finishes a kernel again
	due      time.Duration // modeled completion of the last kernel started
}

// kernel is one unit of device work. Its completion is reported through done
// (Submit) or by handing tag to the done callback (Enqueue).
type kernel struct {
	cost time.Duration
	done *sim.Signal
	tag  any
}

// NewDevice returns an idle device on c.
func NewDevice(c *sim.Clock, name string) *Device {
	d := &Device{clock: c, name: name}
	d.finishFn = d.finish
	return d
}

func (d *Device) enqueue(k kernel) {
	d.queue.Push(k)
	d.queued += k.cost
	if !d.busy && !d.failed {
		d.start()
	}
}

// start begins the oldest queued kernel. The slowdown in force now prices it
// to its end.
func (d *Device) start() {
	k := d.queue.Pop()
	d.queued -= k.cost
	k.cost = d.Price(k.cost)
	d.running = k
	d.busy = true
	d.due = d.clock.Now() + k.cost
	d.clock.After(k.cost, d.finishFn)
}

// finish runs when the executing kernel's time is up.
func (d *Device) finish() {
	if d.failed {
		// Crash-stopped mid-kernel: the in-flight kernel is lost, its
		// completion never fires, and the device goes dark with whatever is
		// queued behind it. The cluster health layer is responsible for
		// unwinding waiters.
		return
	}
	k := d.running
	d.running = kernel{}
	d.busyTime += k.cost
	d.kernels++
	if k.done != nil {
		sim.Fire(k.done)
	} else {
		d.doneFn(k.tag)
	}
	if d.queue.Len() > 0 {
		d.start()
		return
	}
	d.busy = false
	if d.idleFn != nil {
		d.idleFn()
	}
}

// Submit enqueues a kernel and returns its completion signal.
func (d *Device) Submit(label string, cost time.Duration) *sim.Signal {
	done := sim.NewSignal(d.clock)
	d.enqueue(kernel{cost: cost, done: done})
	return done
}

// Enqueue is Submit for a caller that is itself a state machine: on
// completion the device hands tag to the callback installed with
// SetDoneFunc, on the event loop, instead of firing a signal.
func (d *Device) Enqueue(cost time.Duration, tag any) {
	d.enqueue(kernel{cost: cost, tag: tag})
}

// SetDoneFunc installs Enqueue's completion callback. It runs on the event
// loop before the next kernel starts and must not block.
func (d *Device) SetDoneFunc(fn func(tag any)) { d.doneFn = fn }

// Busy reports whether a kernel is executing.
func (d *Device) Busy() bool { return d.busy }

// Idle reports whether the device is fully drained: nothing executing and
// nothing queued.
func (d *Device) Idle() bool { return !d.busy && d.queue.Len() == 0 }

// SetIdleFunc installs the busy→idle notification callback. It runs on the
// event loop, once per drain, and must not block.
func (d *Device) SetIdleFunc(fn func()) { d.idleFn = fn }

// BusyTime returns cumulative kernel execution time.
func (d *Device) BusyTime() time.Duration { return d.busyTime }

// Kernels returns the number of kernels executed.
func (d *Device) Kernels() int { return d.kernels }

// Due returns the virtual instant the most recently started kernel
// completes at its modeled cost, slowdown included. It lies in the future
// exactly while a kernel is executing; a device that fails mid-kernel keeps
// the instant its last kernel should have completed.
func (d *Device) Due() time.Duration { return d.due }

// Drain returns the instant the device finishes everything submitted so far,
// pricing the queued kernels at the slowdown in force now: Now when idle.
func (d *Device) Drain() time.Duration {
	if !d.busy {
		return d.clock.Now()
	}
	return max(d.due, d.clock.Now()) + d.Price(d.queued)
}

// Price returns what a kernel of modeled cost takes on this device at the
// slowdown in force now.
func (d *Device) Price(cost time.Duration) time.Duration {
	if d.slowdown > 1 {
		return time.Duration(float64(cost) * d.slowdown)
	}
	return cost
}

// Fail crash-stops the device: the kernel in flight (if any) is lost, and
// no submitted kernel will ever execute or complete again. Queued and
// future submissions strand their waiters; recovering them is the cluster
// health layer's job. Irreversible.
func (d *Device) Fail() { d.failed = true }

// Failed reports whether the device has crash-stopped.
func (d *Device) Failed() bool { return d.failed }

// SetSlowdown degrades the device: every kernel started from now on costs
// factor times its modeled price (a thermally throttled or contended
// accelerator). Factors <= 1 restore full speed.
func (d *Device) SetSlowdown(factor float64) { d.slowdown = factor }

// Slowdown reports the current degradation factor (0 or 1 = full speed).
func (d *Device) Slowdown() float64 { return d.slowdown }
