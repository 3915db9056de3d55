package trace

import "time"

// SpanKind names what a Span measures. Each kind's comment says when it
// is emitted and which Span fields it fills beyond Kind, Replica, Start
// and End.
type SpanKind string

// The control↔inference boundary (internal/core, Controller.onBatchComplete
// and ImportPages).
const (
	// TTFT: an instance's first completed forward call, from its launch
	// registration (Start) to the batch's completion (End). Session,
	// Instance, Class; Calls 1.
	TTFT SpanKind = "ttft"
	// ITL: each later completed forward call of the instance, from its
	// previous one's completion. Two calls of one instance in one batch
	// make a zero-length span. Session, Instance, Class; Calls 1.
	ITL SpanKind = "itl"
	// Prefilled: a point (Start == End), at most once per instance: its
	// first completed forward, or its first import of KV pages before
	// that forward (the exporter prefilled them), whichever comes first.
	// It follows that forward's TTFT span. Session, Instance, Class.
	Prefilled SpanKind = "prefilled"
	// Overhead: one batch's boundary overhead per call, from its
	// submission (Start) to its deserialisation plus both IPC hops (End):
	// everything but device queueing and the kernel (Fig. 10). Calls, the
	// batch's call count; no Session or Instance. A batch failed before the
	// parser reached it has none.
	Overhead SpanKind = "overhead"
)

// Span is one record of the span stream: an interval of virtual time on
// one replica. The emitting controller stamps Replica; fields a kind does
// not list stay zero. It is passed by value and holds no pointer but
// Class, the instance's class name: nothing keeps it unless the observer
// does.
type Span struct {
	Kind       SpanKind
	Replica    int
	Session    uint64 // the launch's handle id: one key on every replica and attempt
	Instance   uint64 // the core instance id on Replica, which a handoff changes
	Class      string // the instance's service class ("" unclassed)
	Start, End time.Duration
	Calls      int // API calls the span covers
}
