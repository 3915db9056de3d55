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
// the cluster's Check finds every record on a free list there once and
// blank.
func TestResultsAreReadOnce(t *testing.T) {
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	e.MustRegister(inferlet.Program{
		Name: "t", BinarySize: 1 << 10,
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
	launchAndWait(t, e)
}
