package infer

import (
	"time"

	"pie/internal/gpu"
	"pie/internal/sim"
)

// Boundary-crossing constants (Table 3 and Fig. 10). The control↔inference
// IPC hop is a small constant; request deserialization is single-threaded
// on the backend host (the paper attributes Fig. 10's inference-layer
// latency growth to exactly this), so its delay emerges from queueing in
// the deserialization process rather than from a formula.
const (
	IPCCrossing  = 6 * time.Microsecond
	DeserPerCall = 600 * time.Nanosecond
)

// Backend is the inference-layer server: one GPU device plus the
// single-threaded ingress that deserializes batched API calls.
type Backend struct {
	clock *sim.Clock
	// Name identifies the backend (the device name); cluster deployments
	// run one backend per replica and report stats under this name.
	Name   string
	Device *gpu.Device
	ingest *sim.Mailbox[*Batch]

	onComplete func(*Batch) // control-layer event dispatcher hook

	// OnOverhead, when set, observes each call's boundary overhead: the
	// time from control-layer submission to deserialization completion
	// plus the response IPC hop — everything except kernel execution and
	// device queueing. This is exactly what Fig. 10 measures.
	OnOverhead func(time.Duration)

	// Stats.
	BatchesRun int
	CallsRun   int
}

// NewBackend starts the backend processes on c.
func NewBackend(c *sim.Clock, deviceName string) *Backend {
	b := &Backend{
		clock:  c,
		Name:   deviceName,
		Device: gpu.NewDevice(c, deviceName),
		ingest: sim.NewMailbox[*Batch](c),
	}
	c.GoDaemon("infer:ingress:"+deviceName, b.ingressLoop)
	return b
}

// SetCompleteFunc installs the completion callback (the control layer's
// event dispatcher). It runs in a backend process after each batch.
func (b *Backend) SetCompleteFunc(fn func(*Batch)) { b.onComplete = fn }

// Submit ships a batch across the IPC boundary. The returned accounting is
// asynchronous: each call's futures resolve when the batch completes.
func (b *Backend) Submit(batch *Batch) {
	batch.SubmittedAt = b.clock.Now()
	b.ingest.Send(batch)
}

// ingressLoop is the single-threaded deserialization stage: batches queue
// here and pay a per-call parsing cost before reaching the GPU. The IPC
// hops themselves are pipelined (they add latency, not server occupancy);
// only parsing serializes. Kernel execution overlaps with parsing of
// subsequent batches.
func (b *Backend) ingressLoop() {
	for {
		batch, err := b.ingest.Recv()
		if err != nil {
			return
		}
		b.clock.Sleep(time.Duration(len(batch.Calls)) * DeserPerCall)
		if b.OnOverhead != nil {
			// Queueing + parsing, plus both pipelined IPC legs.
			perCall := (b.clock.Now() - batch.SubmittedAt) + 2*IPCCrossing
			for range batch.Calls {
				b.OnOverhead(perCall)
			}
		}
		done := b.Device.Submit(batch.Op.String(), batch.Cost())
		b.clock.GoDaemon("infer:complete", func() {
			_ = sim.Await(done)
			// Response IPC back to the control layer.
			b.clock.Sleep(IPCCrossing)
			batch.Model.execute(batch)
			b.BatchesRun++
			b.CallsRun += len(batch.Calls)
			for _, c := range batch.Calls {
				if c.Done != nil {
					sim.Fire(c.Done)
				}
			}
			if b.onComplete != nil {
				b.onComplete(batch)
			}
		})
	}
}

// Close shuts down the ingress; in-flight batches still complete.
func (b *Backend) Close() { b.ingest.Close() }
