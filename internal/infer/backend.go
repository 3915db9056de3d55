package infer

import (
	"time"

	"pie/internal/gpu"
	"pie/internal/sim"
)

// Boundary-crossing constants (Table 3 and Fig. 10). The control↔inference
// IPC hop is a small constant; request deserialization is single-threaded
// on the backend host (the paper attributes Fig. 10's inference-layer
// latency growth to exactly this), so its delay emerges from batches
// queueing for the one parser rather than from a formula.
const (
	IPCCrossing  = 6 * time.Microsecond
	DeserPerCall = 600 * time.Nanosecond
)

// Backend is the inference-layer server: one GPU device plus the
// single-threaded ingress that deserializes batched API calls.
//
// A batch's trip is three timers and no process: parsed (deserialised),
// kernel done (the device's), responded. The IPC hops are pipelined — they
// add latency, not server occupancy; only parsing serializes, and it
// overlaps with the kernels of earlier batches.
type Backend struct {
	clock *sim.Clock
	// Name identifies the backend (the device name); cluster deployments
	// run one backend per replica and report stats under this name.
	Name   string
	Device *gpu.Device

	// ingressFree is the instant the parser has finished everything
	// submitted so far. parsing holds the batches queued for or in the
	// parser, responding those whose kernel is done and whose results are
	// on the IPC hop back; both oldest first, one armed timer per entry.
	ingressFree time.Duration
	parsing     sim.FIFO[*Batch]
	responding  sim.FIFO[*Batch]
	parsedFn    func() // b.parsed and b.respond, bound once
	respondFn   func()
	closed      bool
	lost        error // Fail's error: every batch the parser reaches fails with it

	onComplete func(*Batch) // control-layer event dispatcher hook

	// The device's forward rhythm (NextForwardDone): the last forward's
	// modeled cost before slowdown and the instant it ends, and the gap
	// between the end of the forward before it and its start — the light
	// ops (embed, dist) the batch former runs between two forwards.
	fwdCost, fwdEnd, fwdGap time.Duration

	// Stats.
	BatchesRun int
	CallsRun   int
}

// NewBackend returns a backend with an idle device on c.
func NewBackend(c *sim.Clock, deviceName string) *Backend {
	b := &Backend{
		clock:  c,
		Name:   deviceName,
		Device: gpu.NewDevice(c, deviceName),
	}
	b.parsedFn, b.respondFn = b.parsed, b.respond
	b.Device.SetDoneFunc(b.kernelDone)
	return b
}

// SetCompleteFunc installs the completion callback (the control layer's
// event dispatcher). It runs on the event loop after each batch and must not
// block.
func (b *Backend) SetCompleteFunc(fn func(*Batch)) { b.onComplete = fn }

// Submit ships a batch across the IPC boundary. The returned accounting is
// asynchronous: each call's result completes when the batch does. The
// batch waits for the parser, then pays a per-call parsing cost before
// reaching the GPU.
func (b *Backend) Submit(batch *Batch) {
	if b.closed {
		return
	}
	now := b.clock.Now()
	batch.SubmittedAt = now
	b.ingressFree = max(b.ingressFree, now) + time.Duration(len(batch.Calls))*DeserPerCall
	b.parsing.Push(batch)
	b.clock.After(b.ingressFree-now, b.parsedFn)
}

// parsed runs when the oldest submitted batch is deserialised.
func (b *Backend) parsed() {
	batch := b.parsing.Pop()
	if b.closed {
		return
	}
	if b.lost != nil {
		b.fail(batch)
		return
	}
	batch.ParsedAt = b.clock.Now()
	cost := batch.Cost()
	if batch.Op == OpForward {
		// It starts when everything queued ahead of it has run.
		start := b.Device.Drain()
		if b.fwdCost > 0 {
			b.fwdGap = max(start-b.fwdEnd, 0)
		}
		b.fwdCost, b.fwdEnd = cost, start+b.Device.Price(cost)
	}
	b.Device.Enqueue(cost, batch)
}

// NextForwardDone predicts when the first forward to start at or after at
// completes. Forwards recur in a rhythm: each costs what the last one did,
// at the slowdown in force now, and starts one gap after the one before it
// ends. An idle device, or one that has run no forward, starts one at at. A
// gap longer than a forward means the device drained between the last two,
// so there is no rhythm to follow: the next forward follows the last one
// directly.
func (b *Backend) NextForwardDone(at time.Duration) time.Duration {
	cost := b.Device.Price(b.fwdCost)
	if b.fwdCost == 0 || b.Device.Idle() {
		return at + cost
	}
	gap := b.fwdGap
	if gap > cost {
		gap = 0
	}
	next := b.fwdEnd + gap
	if next < at {
		period := cost + gap
		next += (at - next + period - 1) / period * period
	}
	return next + cost
}

// kernelDone is the device's completion callback: the batch's results start
// the response IPC hop back to the control layer.
func (b *Backend) kernelDone(batch any) {
	b.responding.Push(batch.(*Batch))
	b.clock.After(IPCCrossing, b.respondFn)
}

// respond runs when the oldest finished batch's results arrive.
func (b *Backend) respond() {
	batch := b.responding.Pop()
	batch.Model.execute(batch)
	b.BatchesRun++
	b.CallsRun += len(batch.Calls)
	for _, c := range batch.Calls {
		if c.Err != nil {
			c.Fail()
		}
	}
	if b.onComplete != nil {
		b.onComplete(batch)
	}
}

// Fail crash-stops the device for good and fails every batch the backend
// holds that would otherwise never complete — the one the device was
// executing, those queued on it, and, as the parser reaches them, those
// queued for or in the parser — with err. Each failed batch reaches the
// completion callback like a finished one, so the control layer drops its
// page pins and recycles its records; Call.Fail reaches the calls' result
// cells. Batches whose results are already on the way back complete as
// usual.
func (b *Backend) Fail(err error) {
	b.lost = err
	b.Device.Fail()
	b.Device.Drop(func(tag any) { b.fail(tag.(*Batch)) })
}

// fail completes a batch the device will never run with the backend's
// loss error.
func (b *Backend) fail(batch *Batch) {
	for _, c := range batch.Calls {
		c.Err = b.lost
		c.Fail()
	}
	if b.onComplete != nil {
		b.onComplete(batch)
	}
}

// Close shuts down the ingress: batches not yet deserialised are dropped,
// like any submitted later; those past the parser still complete.
func (b *Backend) Close() { b.closed = true }
