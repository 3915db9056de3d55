package main

// probes.go is the only file that imports internal packages: the global
// event counter behind host_allocs_per_event, and host-clock probes that
// time a fixed loop of calls into one layer's exported functions.

import (
	"time"

	"pie/internal/grammar"
	"pie/internal/model"
	"pie/internal/sim"
	"pie/internal/tokenizer"
)

// simEvents is the number of events every sim clock in this process has
// handled so far.
func simEvents() uint64 { return sim.TotalEvents() }

// clockProbe runs 1000 sim processes through 50 seeded sleeps each on a
// bare clock and returns host nanoseconds per event: the floor under
// wall_s that no engine layer adds to.
func clockProbe(seed uint64) (nsPerEvent float64, events int, err error) {
	const procs, rounds = 1000, 50
	c := sim.NewClock()
	for p := 0; p < procs; p++ {
		r := newRNG(seed, uint64(p)+1)
		c.Go("p", func() {
			for k := 0; k < rounds; k++ {
				c.Sleep(time.Duration(r.between(0, 999)) * time.Microsecond)
			}
		})
	}
	t0 := time.Now()
	if err := c.Run(); err != nil {
		return 0, 0, err
	}
	wall := time.Since(t0)
	n := c.Events()
	return float64(wall.Nanoseconds()) / float64(n), int(n), nil
}

// decodeStepProbe times Model.Forward of one token over four pages of
// context on llama-1b: the math a ModeFull decode step pays.
func decodeStepProbe(seed uint64, steps int) (usPerStep float64, n int, err error) {
	m := model.StandardCatalog(seed).Models[benchModel]
	ids := m.Tokenizer().Encode("a reasonably long prompt for timing the decode path of the functional model ")
	pages := []*model.KvPage{m.NewKvPage(), m.NewKvPage(), m.NewKvPage(), m.NewKvPage()}
	in, pos := make([]*model.EmbedSlot, len(ids)), make([]int, len(ids))
	for i := range ids {
		in[i], pos[i] = m.NewEmbedSlot(), i
	}
	if err := m.EmbedTokens(ids, pos, in); err != nil {
		return 0, 0, err
	}
	if _, err := m.Forward(nil, in, pages, nil, nil, ""); err != nil {
		return 0, 0, err
	}
	q, out := m.NewEmbedSlot(), m.NewEmbedSlot()
	if err := m.EmbedTokens([]int{ids[0]}, []int{len(ids)}, []*model.EmbedSlot{q}); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		if _, err := m.Forward(pages, []*model.EmbedSlot{q}, nil, []*model.EmbedSlot{out}, nil, ""); err != nil {
			return 0, 0, err
		}
	}
	return us(time.Since(t0)) / float64(steps), steps, nil
}

// encodeProbe times the tokenizer over seeded prose, in MB of input per
// host second.
func encodeProbe(seed uint64, rounds int) (mbPerS float64, n int) {
	tok := tokenizer.New()
	text := prose(newRNG(seed, 0x70C), 2000)
	t0 := time.Now()
	total := 0
	for i := 0; i < rounds; i++ {
		total += len(tok.Encode(text))
	}
	_ = total
	return float64(rounds*len(text)) / 1e6 / time.Since(t0).Seconds(), rounds
}

// allowedTokensProbe times one grammar-constrained decoding step: which
// vocabulary entries may follow a partial JSON document.
func allowedTokensProbe(calls int) (usPerCall float64, n int, err error) {
	g, err := grammar.Parse(grammar.JSONGrammar)
	if err != nil {
		return 0, 0, err
	}
	m, err := g.Compile("json")
	if err != nil {
		return 0, 0, err
	}
	m.AdvanceString(`{"key": [1, 2, {"x": `)
	vocab := tokenizer.New().Vocab()
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		m.AllowedTokens(vocab)
	}
	return us(time.Since(t0)) / float64(calls), calls, nil
}
