// Session tests on a real control layer: the handoff check at each forward
// boundary binding, and the queue bindings driven by a support.Context and
// the session's own runtime calls.
package ilm

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"pie/api"
	"pie/inferlet"
	"pie/internal/core"
	"pie/internal/infer"
	"pie/internal/model"
	"pie/internal/sim"
	"pie/support"
)

// onePlacer places every launch on one controller and, like fakePlacer,
// declines every handoff. It records, for each handoff it is asked for,
// whether the instance was quiescent at the time.
type onePlacer struct {
	fakePlacer
	ctl      *core.Controller
	consults []bool
}

func (p *onePlacer) Place(string, string, []string) (*core.Controller, error) { return p.ctl, nil }

func (p *onePlacer) MaybeHandoff(ctl *core.Controller, inst *core.Instance) (*core.Controller, *core.Instance, bool) {
	p.consults = append(p.consults, ctl.InstanceQuiescent(inst))
	return p.fakePlacer.MaybeHandoff(ctl, inst)
}

// runOnController launches program body on an ILM whose placer puts it on
// a one-model timing controller, and waits for it.
func runOnController(t *testing.T, body func(s *session) error) {
	t.Helper()
	clock := sim.NewClock()
	rt := infer.NewModelRuntime(model.StandardCatalog(42).Models["llama-1b"], infer.ExecTiming)
	ctl := core.NewController(clock, infer.NewBackend(clock, "gpu0"), []*infer.ModelRuntime{rt},
		core.DefaultSchedConfig(), core.OffloadConfig{}, core.ArtifactConfig{})
	p := &onePlacer{ctl: ctl}
	m := New(clock, p, nil, []api.ModelInfo{rt.Info})
	if err := m.Register(inferlet.Program{Name: "t", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
		return body(s.(*session))
	}}); err != nil {
		t.Fatal(err)
	}
	clock.Go("client", func() {
		h, err := m.Launch(LaunchSpec{Program: "t", Args: []string{"arg"}})
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if err := h.Wait(); err != nil {
			t.Errorf("inferlet: %v", err)
		}
	})
	if err := clock.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckHandoffThroughTheBindings: Forward, EmbedText and ForwardSampled
// each consult the placer before they enqueue, only while the instance is
// marked, and whatever is in flight; a declined handoff keeps the mark and
// the call runs where the session is.
func TestCheckHandoffThroughTheBindings(t *testing.T) {
	type result struct {
		name          string
		marked, busy  bool
		consults      []bool // quiescence at each consultation
		markAfterCall bool
	}
	var got []result
	runOnController(t, func(s *session) error {
		ctl, inst, placer := s.ctl, s.inst, s.ilm.place.(*onePlacer)
		qid, err := ctl.CreateQueue(inst, "llama-1b")
		if err != nil {
			return err
		}
		b := &queueBinding{s: s, qid: qid, model: "llama-1b"}
		embs, err := b.AllocEmbeds(2)
		if err != nil {
			return err
		}
		drain := func() error {
			f, err := b.Synchronize()
			if err != nil {
				return err
			}
			_, err = f.Get()
			return err
		}
		ops := []struct {
			name string
			run  func() error
		}{
			{"EmbedText", func() error { _, err := b.EmbedText([]int{5}, []int{0}, embs[:1]); return err }},
			{"Forward", func() error {
				_, err := b.Forward(api.ForwardArgs{InputEmb: embs[:1], OutputEmb: embs[1:]})
				return err
			}},
			{"ForwardSampled", func() error {
				_, err := b.ForwardSampled(api.ForwardArgs{}, []int{5}, []int{0}, api.SampleSpec{})
				return err
			}},
		}
		for _, op := range ops {
			for _, marked := range []bool{false, true} {
				for _, busy := range []bool{false, true} {
					if busy {
						// An embed left in flight: the instance is not quiescent.
						if _, err := b.EmbedText([]int{6}, []int{0}, embs[:1]); err != nil {
							return err
						}
					}
					inst.HandoffPending = marked
					before := len(placer.consults)
					if err := op.run(); err != nil {
						return fmt.Errorf("%s: %w", op.name, err)
					}
					name := fmt.Sprintf("%s marked=%v busy=%v", op.name, marked, busy)
					got = append(got, result{name, marked, busy, slices.Clone(placer.consults[before:]), inst.HandoffPending})
					inst.HandoffPending = false
					if s.ctl != ctl || s.inst != inst {
						return fmt.Errorf("%s: a declined handoff rebound the session", name)
					}
					if err := drain(); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if len(got) != 12 {
		t.Fatalf("%d cases ran, want 12", len(got))
	}
	for _, r := range got {
		var want []bool
		if r.marked {
			want = []bool{!r.busy}
		}
		if !slices.Equal(r.consults, want) {
			t.Errorf("%s: consulted the placer with quiescence %v, want %v", r.name, r.consults, want)
		}
		if r.markAfterCall != r.marked {
			t.Errorf("%s: pending mark %v after the call, want %v", r.name, r.markAfterCall, r.marked)
		}
	}
}

// TestSessionDrivesAContext runs a support.Context and the session's own
// runtime calls through the bindings on a real controller.
func TestSessionDrivesAContext(t *testing.T) {
	var logs []string
	runOnController(t, func(s *session) error {
		if got := s.GetArg(); !slices.Equal(got, []string{"arg"}) {
			return fmt.Errorf("GetArg = %v", got)
		}
		models := s.AvailableModels()
		if len(models) != 1 || models[0].ID != "llama-1b" {
			return fmt.Errorf("AvailableModels = %v", models)
		}
		if traits, err := s.AvailableTraits("llama-1b"); err != nil || len(traits) == 0 {
			return fmt.Errorf("AvailableTraits = %v, %v", traits, err)
		}
		start := s.Now()
		s.Sleep(time.Microsecond)
		s.Yield()
		if s.Now() < start+time.Microsecond {
			return errors.New("Sleep did not advance the clock")
		}
		s.Random()
		s.Print("hello from " + s.InstanceID())
		logs = s.handle.Logs()
		sub := s.Subscribe("topic")
		s.Broadcast("topic", "news")
		if msg, err := sub.Recv().Get(); err != nil || msg != "news" {
			return fmt.Errorf("subscription got %q, %v", msg, err)
		}

		c, err := support.NewContext(s, models[0])
		if err != nil {
			return err
		}
		if err := c.Q.SetPriority(1); err != nil {
			return err
		}
		if err := c.FillTokens(slices.Repeat([]int{7}, models[0].PageSize)); err != nil {
			return err
		}
		if err := c.Fill("drive the bindings"); err != nil {
			return err
		}
		res, err := c.Generate(support.GenOpts{MaxTokens: 4})
		if err != nil {
			return err
		}
		if len(res.Tokens) != 4 {
			return fmt.Errorf("Generate gave %d tokens", len(res.Tokens))
		}
		if _, err := c.ProbeTokens([]int{3, 4}, 2); err != nil {
			return err
		}
		kids, err := c.Fork(1)
		if err != nil {
			return err
		}
		if err := kids[0].Close(); err != nil {
			return err
		}
		if err := c.MaskRange(0, 1, true); err != nil {
			return err
		}
		if _, err := c.Vocabs(); err != nil {
			return err
		}
		if err := c.Export("session:ctx"); err != nil {
			return err
		}
		if !c.Alloc().HasExport("session:ctx") {
			return errors.New("HasExport after Export = false")
		}
		imp, err := support.ImportContext(s, models[0], "session:ctx", c.Tokens)
		if err != nil {
			return err
		}
		if err := imp.Close(); err != nil {
			return err
		}
		if err := c.Alloc().ReleaseExport("session:ctx"); err != nil {
			return err
		}
		if _, err := c.Q.Image(); err == nil {
			return errors.New("llama-1b negotiated an image capability")
		}
		if err := c.Drop(); err != nil {
			return err
		}
		if err := c.Sync(); err != nil {
			return err
		}
		s.ReportOutputTokens(4)
		if _, _, out := s.handle.Stats(); out < 8 {
			return fmt.Errorf("%d output tokens reported, want at least 8", out)
		}
		return c.Close()
	})
	if len(logs) != 1 || logs[0] != "hello from t#1" {
		t.Fatalf("logs = %q", logs)
	}
}
