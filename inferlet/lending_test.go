package inferlet_test

import (
	"fmt"
	"testing"

	"pie"
	"pie/api"
	"pie/inferlet"
)

// The runtime's half of the lending contract (ForwardOption): by the time
// Run returns it has resolved every handle and copied every token id, so a
// caller that scribbles over the slices it passed — before the pass has
// executed — changes nothing. Full fidelity: a wrong handle or token would
// change the numbers.
func TestCallerMayOverwriteLentSlices(t *testing.T) {
	generate := func(scribble bool) string {
		e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeFull})
		var out string
		e.MustRegister(inferlet.Program{Name: "t", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
			q, err := s.Open(s.AvailableModels()[0].ID)
			if err != nil {
				return err
			}
			alloc, _ := q.Alloc()
			text, _ := q.Text()
			fwd, _ := q.Forward()
			fused, _ := q.Fused()
			sample, _ := q.Sample()
			pages, err := alloc.Pages(2)
			if err != nil {
				return err
			}
			embs, err := alloc.Embeds(5)
			if err != nil {
				return err
			}
			in, gen := embs[:4], embs[4:]
			keepPages, keepGen := append([]api.KvPage(nil), pages...), append([]api.Embed(nil), gen...)

			// A plain forward: handles lent by four options.
			toks, pos := []int{11, 12, 13, 14}, []int{0, 1, 2, 3}
			if _, err := text.Embed(toks, pos, in); err != nil {
				return err
			}
			if _, err := fwd.Run(inferlet.ReadKv(pages...), inferlet.Input(in...), inferlet.AppendKv(pages...), inferlet.Output(gen...)); err != nil {
				return err
			}
			if scribble {
				clear(toks)
				clear(pos)
				clear(pages)
				clear(in)
				clear(gen)
			}
			f, err := sample.NextDist(keepGen[0])
			if err != nil {
				return err
			}
			d, err := f.Get()
			if err != nil {
				return err
			}
			out = fmt.Sprint(d.Tokens[:4], d.Probs[:4])

			// A fused forward: inline tokens lent too.
			copy(pages, keepPages)
			copy(gen, keepGen)
			toks, pos = []int{d.ArgMax(), 21}, []int{4, 5}
			sampled, err := fused.Run(inferlet.ReadKv(pages...), inferlet.InlineTokens(toks, pos),
				inferlet.AppendKv(pages...), inferlet.Output(gen...), inferlet.WithSampling(inferlet.TopK(1)))
			if err != nil {
				return err
			}
			if scribble {
				clear(toks)
				clear(pos)
				clear(pages)
				clear(gen)
			}
			ids, err := sampled.Get()
			if err != nil {
				return err
			}
			out += fmt.Sprint(" ", ids)
			return q.Close()
		}})
		if err := e.RunClient(func() {
			h, err := e.Launch(pie.Spec("t"))
			if err != nil {
				t.Errorf("launch: %v", err)
				return
			}
			if err := h.Wait(); err != nil {
				t.Errorf("inferlet: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	kept, scribbled := generate(false), generate(true)
	if kept == "" || kept != scribbled {
		t.Fatalf("overwriting the lent slices after Run changed the result:\n kept:      %s\n scribbled: %s", kept, scribbled)
	}
}
