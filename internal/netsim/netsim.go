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

// Send charges a one-way trip.
func (l Link) Send() { l.Clock.Sleep(l.RTT / 2) }

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

// Lookup fetches a registered service.
func (w *World) Lookup(host string) (*Service, bool) {
	s, ok := w.services[host]
	return s, ok
}

// host extracts the service name from a URL like "http://weather.api/q?x".
func host(url string) string {
	u := strings.TrimPrefix(strings.TrimPrefix(url, "https://"), "http://")
	if i := strings.IndexByte(u, '/'); i >= 0 {
		u = u[:i]
	}
	return u
}

// Call performs an asynchronous request against url: the returned future
// resolves after the service's latency with its response. Fire-and-forget
// callers simply drop the future (§7.2 optimization #2). The request is a
// clock timer, not a process: one event from call to response.
func (w *World) Call(url, body string) *sim.Future[string] {
	w.Calls++
	f := sim.NewFuture[string](w.clock)
	h := host(url)
	svc, ok := w.services[h]
	lat := w.DefaultLatency
	if ok {
		lat = svc.Latency
	}
	w.clock.After(lat, func() {
		if !ok {
			f.Resolve(fmt.Sprintf(`{"host":%q,"status":200,"body":"ok"}`, h))
			return
		}
		f.Resolve(svc.Handler(body))
	})
	return f
}
