package support_test

import (
	"testing"

	"pie"
	"pie/inferlet"
	"pie/support"
)

// TestResultsAreReadOnce drives every reader of call results in this
// package — ParallelGenerate, the multi-output verify of ForwardTokens and
// ProbeTokens, NextDist, DecodeText, Vocabs, Encode — on one context. A
// second read of a result fails with api.ErrResultRead, so each reader
// reads each result once if the program ends without error; afterwards
// every record on the controller's free list is there once and blank.
func TestResultsAreReadOnce(t *testing.T) {
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{
		Name: "reader", BinarySize: 1 << 10,
		Run: func(s inferlet.Session) error {
			s = newPoisonPool(t).session(s)
			ctx, err := support.NewContext(s, s.AvailableModels()[0])
			if err != nil {
				return err
			}
			if _, err := ctx.Vocabs(); err != nil {
				return err
			}
			if err := ctx.Fill("a prompt that fills part of a page "); err != nil {
				return err
			}
			if _, err := ctx.ForwardTokens([]int{7, 8, 9}, 3); err != nil {
				return err
			}
			if _, err := ctx.ProbeTokens([]int{10, 11}, 2); err != nil {
				return err
			}
			kids, err := ctx.Fork(3)
			if err != nil {
				return err
			}
			res, err := support.ParallelGenerate(kids, support.GenOpts{MaxTokens: 6}, nil)
			if err != nil {
				return err
			}
			if _, err := ctx.NextDist(); err != nil {
				return err
			}
			_, err = ctx.DecodeText(res[0].Tokens)
			return err
		},
	})
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec("reader"))
		if err != nil {
			t.Error(err)
			return
		}
		if err := h.Wait(); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range e.Cluster().Replicas() {
		if err := r.Ctl.CheckFreeCalls(); err != nil {
			t.Error(err)
		}
	}
}
