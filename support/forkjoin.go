package support

import (
	"pie/api"
	"pie/inferlet"
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
// stop individually on their opts; the call returns when all stop. Each
// result's Tokens is lent by its branch's context, as Generate's is.
func ParallelGenerate(ctxs []*Context, opts GenOpts, samplers []Sampler) ([]GenResult, error) {
	n := len(ctxs)
	if opts.MaxTokens <= 0 {
		opts.MaxTokens = 64
	}
	type branch struct {
		from   int // the branch's generation is ctxs[i].Tokens[from:]
		active bool
		fut    inferlet.Result[api.Dist] // this step's request
	}
	branches := make([]branch, n)
	for i, c := range ctxs {
		branches[i] = branch{from: len(c.Tokens), active: true}
	}
	remaining := n
	for step := 0; step < opts.MaxTokens && remaining > 0; step++ {
		// Phase 1: issue all pending forwards and distribution requests.
		for i, c := range ctxs {
			b := &branches[i]
			if !b.active {
				continue
			}
			f, err := c.nextDist()
			if err != nil {
				return nil, err
			}
			b.fut = f
		}
		// Phase 2: await, sample, and accept the tokens.
		for i, c := range ctxs {
			b := &branches[i]
			if !b.active {
				continue
			}
			dist, err := b.fut.Get()
			if err != nil {
				return nil, err
			}
			var s Sampler = Greedy{}
			if samplers != nil && samplers[i] != nil {
				s = samplers[i]
			} else if opts.Sampler != nil {
				s = opts.Sampler
			}
			done, err := c.accept(&opts, b.from, s.Next(dist))
			if err != nil {
				return nil, err
			}
			if done {
				b.active = false
				remaining--
			}
		}
	}
	results := make([]GenResult, n)
	for i, c := range ctxs {
		res, err := c.result(branches[i].from)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}
