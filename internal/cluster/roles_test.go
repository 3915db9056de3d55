// Engine-level tests of the role balancer: closed-loop loads on P/D fleets
// move replicas toward the pool the cost model says needs them, never empty
// a role and never flip a replica back; a session marked for handoff on a
// replica that turns decode finishes there.
package cluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pie"
	"pie/internal/cluster"
	"pie/internal/trace"
	"pie/support"
)

// closedLoop runs clients that each launch text_completion with params back
// to back until the virtual clock reaches until, then drains the engine.
func closedLoop(t *testing.T, e *pie.Engine, clients int, until time.Duration, params string) {
	t.Helper()
	for i := 0; i < clients; i++ {
		e.Go("client", func() {
			for e.Now() < until {
				if _, err := e.LaunchAndWait(pie.Spec("text_completion", params)); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// splitOf counts the serving prefill and decode replicas.
func splitOf(cl *cluster.Cluster) (prefill, decode int) {
	for _, r := range cl.Replicas() {
		switch r.Role {
		case cluster.RolePrefill:
			prefill++
		case cluster.RoleDecode:
			decode++
		}
	}
	return prefill, decode
}

// TestRolesFollowLoad: a decode-heavy load (short prompts, 64 tokens out)
// moves one of two prefill replicas to decode, once, after two windows that
// agree, and it stays there. A prefill-heavy load (long prompts, one token
// out) only ever moves decode replicas to prefill. At one replica per role
// nothing moves under either load. Each flip is one record, no earlier than
// the second window, whose gain exceeds what the donor pool loses.
func TestRolesFollowLoad(t *testing.T) {
	split := func(p int) []pie.RoleSpec {
		return []pie.RoleSpec{{Role: pie.RolePrefill, Count: p}, {Role: pie.RoleDecode}}
	}
	decodeHeavy := completionParams(64, "")
	prefillHeavy := fmt.Sprintf(`{"prompt":%q,"max_tokens":1}`, strings.Repeat("word ", 400))
	for _, tc := range []struct {
		name               string
		replicas, p        int
		clients            int
		params             string
		to                 cluster.Role // the only direction a flip may take
		minFlips, maxFlips int
	}{
		{"decode-heavy 2P:4D", 6, 2, 48, decodeHeavy, cluster.RoleDecode, 1, 1},
		{"prefill-heavy 2P:4D", 6, 2, 24, prefillHeavy, cluster.RolePrefill, 0, 3},
		{"decode-heavy 1P:1D", 2, 1, 16, decodeHeavy, cluster.RoleDecode, 0, 0},
		{"prefill-heavy 1P:1D", 2, 1, 8, prefillHeavy, cluster.RolePrefill, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, pie.Config{Seed: 5, Replicas: tc.replicas, Placement: pie.PlaceLeastLoaded, Roles: split(tc.p)})
			ds := decisionLog(t, e)
			cl := e.Cluster()
			closedLoop(t, e, tc.clients, 12*time.Second, tc.params)
			if cl.RoleFlips < tc.minFlips || cl.RoleFlips > tc.maxFlips {
				t.Fatalf("%d flips, want %d to %d", cl.RoleFlips, tc.minFlips, tc.maxFlips)
			}
			p, d := tc.p, tc.replicas-tc.p
			flipped := map[int]bool{}
			for _, rec := range *ds {
				if rec.Kind != trace.RoleFlip {
					continue
				}
				if rec.Role != tc.to.String() {
					t.Fatalf("flip to %s, want only flips to %s: %+v", rec.Role, tc.to, rec)
				}
				if flipped[rec.Replica] {
					t.Fatalf("replica %d flipped twice", rec.Replica)
				}
				flipped[rec.Replica] = true
				if rec.T < 4*time.Second || !(rec.Balance.Gain > rec.Balance.Loss) {
					t.Fatalf("flip at %v with gain %v <= loss %v: %+v", rec.T, rec.Balance.Gain, rec.Balance.Loss, rec)
				}
				if tc.to == cluster.RoleDecode {
					p, d = p-1, d+1
				} else {
					p, d = p+1, d-1
				}
				if p < 1 || d < 1 {
					t.Fatalf("flip left %dP:%dD: %+v", p, d, rec)
				}
			}
			if gp, gd := splitOf(cl); gp != p || gd != d {
				t.Fatalf("final split %dP:%dD, records say %dP:%dD", gp, gd, p, d)
			}
		})
	}
}

// TestFlipDecodesPendingSessionInPlace: a session held at its first token,
// marked for handoff, hands off once its prefill replica stays prefill; when
// that replica turns decode meanwhile, the session decodes where it is, and
// the run counts neither a handoff nor a denial.
func TestFlipDecodesPendingSessionInPlace(t *testing.T) {
	for _, flip := range []bool{false, true} {
		e := newEngine(t, pie.Config{
			Seed: 11, Replicas: 3, Placement: pie.PlaceLeastLoaded,
			Roles: []pie.RoleSpec{{Role: pie.RolePrefill, Count: 2}, {Role: pie.RoleDecode}},
		})
		e.MustRegister(pie.Program{Name: "held_chat", BinarySize: 4 << 10, Run: func(s pie.Session) error {
			c, err := support.NewContext(s, s.AvailableModels()[0])
			if err != nil {
				return err
			}
			if err := c.Fill("hold me at my first token"); err != nil {
				return err
			}
			if _, err := c.NextDist(); err != nil {
				return err
			}
			s.Send("first")
			if _, err := s.Receive().Get(); err != nil {
				return err
			}
			if _, err := c.Generate(support.GenOpts{MaxTokens: 8}); err != nil {
				return err
			}
			return c.Drop()
		}})
		cl := e.Cluster()
		host, decode := cl.Replicas()[0], cl.Replicas()[2]
		err := e.RunClient(func() {
			h, err := e.Launch(pie.Spec("held_chat", ""))
			if err != nil {
				panic(err)
			}
			if _, err := h.Recv().Get(); err != nil {
				panic(err)
			}
			if flip {
				cl.FlipRole(host, cluster.RoleDecode)
			}
			h.Send("go")
			if err := h.Wait(); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		handoffs, flips := 1, 0
		if flip {
			handoffs, flips = 0, 1
			if n := decode.Backend.Device.Kernels(); n != 0 {
				t.Fatalf("the decode replica ran %d kernels for a session that stayed", n)
			}
		}
		if cl.Handoffs != handoffs || cl.HandoffDenied != 0 || cl.RoleFlips != flips {
			t.Fatalf("flip %v: handoffs %d denied %d flips %d, want %d/0/%d", flip, cl.Handoffs, cl.HandoffDenied, cl.RoleFlips, handoffs, flips)
		}
	}
}
