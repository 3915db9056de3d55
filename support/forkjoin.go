package support

import (
	"pie/api"
)

// ParallelGenerate decodes several contexts in lockstep from a single
// (single-threaded, event-driven) inferlet: each round it issues every
// branch's get_next_dist asynchronously — behind the embed+forward of the
// token the branch accepted the round before — awaits them together and
// samples. A branch's last token issues no forward (Append is lazy).
// Because each context has its own command queue, the batch scheduler
// merges the per-branch calls horizontally — the SGLang-style fork/join of
// the support library (§6.3) without any engine support.
//
// samplers[i] drives branch i (nil entries default to Greedy). Branches
// stop individually on their opts; the call returns when all stop.
func ParallelGenerate(ctxs []*Context, opts GenOpts, samplers []Sampler) ([]GenResult, error) {
	n := len(ctxs)
	if opts.MaxTokens <= 0 {
		opts.MaxTokens = 64
	}
	outs := make([][]int, n)
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	remaining := n
	for step := 0; step < opts.MaxTokens && remaining > 0; step++ {
		// Phase 1: issue all pending forwards and distribution requests.
		futs := make([]api.Future[api.Dist], n)
		for i, c := range ctxs {
			if !active[i] {
				continue
			}
			f, err := c.nextDist()
			if err != nil {
				return nil, err
			}
			futs[i] = f
		}
		// Phase 2: await, sample, and accept the tokens.
		for i, c := range ctxs {
			if !active[i] {
				continue
			}
			dist, err := futs[i].Get()
			if err != nil {
				return nil, err
			}
			var s Sampler = Greedy{}
			if samplers != nil && samplers[i] != nil {
				s = samplers[i]
			} else if opts.Sampler != nil {
				s = opts.Sampler
			}
			var done bool
			if outs[i], done, err = c.accept(&opts, outs[i], s.Next(dist)); err != nil {
				return nil, err
			}
			if done {
				active[i] = false
				remaining--
			}
		}
	}
	results := make([]GenResult, n)
	for i, c := range ctxs {
		text, err := c.DecodeText(outs[i])
		if err != nil {
			return nil, err
		}
		results[i] = GenResult{Tokens: outs[i], Text: text}
	}
	return results, nil
}

// AwaitAll drains a set of futures, returning the first error. It is
// sugar over the api.All combinator.
func AwaitAll[T any](futs []api.Future[T]) ([]T, error) {
	return api.All(futs...).Get()
}
