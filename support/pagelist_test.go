package support_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pie"
	"pie/inferlet"
	"pie/support"
)

// TestAttentionPageListTracksContext: the attention-input list a Context
// keeps between forwards always equals one built from scratch — the pinned
// prefix, then the live pages — whatever mix of growth, rollback, masking,
// page release, forking and dropping preceded it.
func TestAttentionPageListTracksContext(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			e := pie.New(pie.Config{Seed: uint64(seed), Mode: pie.ModeTiming})
			e.MustRegister(inferlet.Program{Name: "t", BinarySize: 4 << 10, Run: func(s inferlet.Session) error {
				rng := rand.New(rand.NewSource(seed))
				m := s.AvailableModels()[0]
				root, err := support.NewContext(s, m)
				if err != nil {
					return err
				}
				if seed%2 == 0 { // a composed context: foreign pages pinned in front
					al := root.Alloc()
					pinned, err := al.Pages(2)
					if err != nil {
						return err
					}
					if root, err = support.ComposeContext(root, pinned, 2*m.PageSize); err != nil {
						return err
					}
				}
				live := []*support.Context{root}
				check := func(step int, op string) error {
					for i, c := range live {
						want := append(slices.Clone(c.PinnedPages()), c.Pages()...)
						if got := c.AttentionPages(); !slices.Equal(got, want) {
							return fmt.Errorf("step %d (%s): context %d attends %v, a fresh walk gives %v", step, op, i, got, want)
						}
					}
					return nil
				}
				var masked [][2]int // slot ranges masked on root, for ReleaseMaskedPages
				for step := 0; step < 150; step++ {
					// A forked parent must sit still (its pages are shared)
					// until its children are dropped.
					c := root
					if len(live) > 1 {
						c = live[1+rng.Intn(len(live)-1)]
					}
					op := ""
					switch k := rng.Intn(12); {
					case k < 5:
						op = "append"
						for i := 0; i <= rng.Intn(20); i++ {
							if err := c.Append(5 + rng.Intn(50)); err != nil {
								return err
							}
						}
					case k < 6:
						op = "fill"
						if err := c.FillTokens(make([]int, 1+rng.Intn(40))); err != nil {
							return err
						}
					case k < 7:
						op = "truncate"
						if c.Len() > 0 && c.Slots() == c.Len() {
							if err := c.Truncate(c.Len() - rng.Intn(min(c.Len(), 5)+1)); err != nil {
								return err
							}
						}
					case k < 9:
						op = "mask+release"
						if c == root && root.Slots() >= 2*m.PageSize {
							from := rng.Intn(root.Slots()/m.PageSize) * m.PageSize
							r := [2]int{from, from + m.PageSize}
							if err := root.MaskRange(r[0], r[1], true); err != nil {
								return err
							}
							masked = append(masked, r)
							if _, err := root.ReleaseMaskedPages(masked); err != nil {
								return err
							}
						}
					case k < 10:
						op = "fork"
						if c == root {
							kids, err := root.Fork(2)
							if err != nil {
								return err
							}
							live = append(live, kids...)
						}
					default:
						op = "drop"
						if c != root {
							if err := c.Drop(); err != nil {
								return err
							}
							live = slices.DeleteFunc(live, func(x *support.Context) bool { return x == c })
						}
					}
					if err := check(step, op); err != nil {
						return err
					}
				}
				return nil
			}})
			if err := e.RunClient(func() {
				h, err := e.Launch(pie.Spec("t"))
				if err != nil {
					t.Errorf("launch: %v", err)
					return
				}
				if err := h.Wait(); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
