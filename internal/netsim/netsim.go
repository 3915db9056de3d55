// Package netsim models the network around the serving system: the
// client↔server link (the paper measures end-to-end latency from a remote
// Python client on a campus network) and the external services — web APIs,
// code-execution sandboxes, other agents' endpoints — that agentic
// workflows call into (§7.1).
//
// Pie's headline agentic gains come from co-locating these calls with
// generation instead of bouncing through the client, so round-trip costs
// are first-class objects here.
package netsim

import (
	"fmt"
	"strings"
	"time"

	"pie/internal/sim"
)

// Link is a symmetric network path with a fixed round-trip time.
type Link struct {
	Clock *sim.Clock
	RTT   time.Duration
}

// RoundTrip charges one full round trip around fn (request out, response
// back) and returns fn's result.
func RoundTrip[T any](l Link, fn func() T) T {
	l.Clock.Sleep(l.RTT / 2)
	v := fn()
	l.Clock.Sleep(l.RTT - l.RTT/2)
	return v
}

// Service is an external endpoint with its own processing latency.
type Service struct {
	Name    string
	Latency time.Duration
	// Handler computes the response when it is due. It runs in a clock
	// timer, so it must not block.
	Handler func(req string) string
}

// World is the registry of external services reachable over HTTP-style
// calls from inferlets and baseline clients.
type World struct {
	clock    *sim.Clock
	services map[string]*Service
	// DefaultLatency applies to unregistered hosts.
	DefaultLatency time.Duration
	Calls          int
	free           []*request
}

// NewWorld creates an empty world.
func NewWorld(clock *sim.Clock) *World {
	return &World{
		clock:          clock,
		services:       make(map[string]*Service),
		DefaultLatency: 50 * time.Millisecond,
	}
}

// Register installs a service under a host name (e.g. "weather.api").
func (w *World) Register(s *Service) { w.services[s.Name] = s }

// host extracts the service name from a URL like "http://weather.api/q?x".
func host(url string) string {
	u := strings.TrimPrefix(strings.TrimPrefix(url, "https://"), "http://")
	if i := strings.IndexByte(u, '/'); i >= 0 {
		u = u[:i]
	}
	return u
}

// Call performs an asynchronous request against url, answered after the
// service's latency. Fire-and-forget callers simply drop the result (§7.2
// optimization #2). The request is a pooled record (sim.Cell) and a clock
// timer: one event and, once its result is read, no allocation.
func (w *World) Call(url, body string) sim.Result[string] {
	w.Calls++
	var r *request
	if n := len(w.free); n > 0 {
		r, w.free = w.free[n-1], w.free[:n-1]
	} else {
		r = &request{w: w}
		r.res.Init(w.clock, r)
		r.fire = r.respond
	}
	r.host, r.body = host(url), body
	lat := w.DefaultLatency
	if r.svc = w.services[r.host]; r.svc != nil {
		lat = r.svc.Latency
	}
	res := sim.Hold(&r.res, &r.resp)
	w.clock.After(lat, r.fire)
	return res
}

// request is a tool call's record.
type request struct {
	w                *World
	res              sim.Cell
	svc              *Service // nil: an unregistered host
	host, body, resp string
	fire             func() // respond, bound once per record
}

// respond is the request's timer: the service answers.
func (r *request) respond() {
	if r.svc == nil {
		r.resp = fmt.Sprintf(`{"host":%q,"status":200,"body":"ok"}`, r.host)
	} else {
		r.resp = r.svc.Handler(r.body)
	}
	r.res.Resolve()
	r.res.Release()
}

// Recycle returns the record to the world's pool.
func (r *request) Recycle() {
	r.res.Reset()
	r.w.free = append(r.w.free, r)
}
