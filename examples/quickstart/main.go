// Quickstart: the paper's §4.2 examples end to end — the three-line
// support-library completion, and the same loop written against the raw
// fine-grained API (alloc/embed/forward/sample), on a full-fidelity
// engine with real (tiny-transformer) math.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pie"
	"pie/inferlet"
	"pie/support"
)

func main() {
	engine := pie.New(pie.Config{Seed: 42, Mode: pie.ModeFull})

	// The high-level version: Context manages pages automatically (§6.3).
	engine.MustRegister(inferlet.Program{
		Name: "hello-simple", BinarySize: 64 << 10,
		Run: func(s inferlet.Session) error {
			ctx, err := support.NewContext(s, s.AvailableModels()[0])
			if err != nil {
				return err
			}
			if err := ctx.Fill("Hello, "); err != nil {
				return err
			}
			res, err := ctx.Generate(support.GenOpts{MaxTokens: 10})
			if err != nil {
				return err
			}
			s.Send(res.Text)
			return ctx.Sync()
		},
	})

	// The same loop with raw handles: negotiated capabilities, explicit
	// embeds, KV pages, forwards, and host-side greedy sampling (the
	// paper's §4.2 listing in the v2 capability idiom).
	engine.MustRegister(inferlet.Program{
		Name: "hello-raw", BinarySize: 129 << 10,
		Run: func(s inferlet.Session) error {
			m := s.AvailableModels()[0]
			q, err := s.Open(m.ID)
			if err != nil {
				return err
			}
			tok, _ := q.Tokenizer() // trait: tokenize
			alloc, _ := q.Alloc()   // trait: allocate
			text, _ := q.Text()     // trait: input_text
			fwd, _ := q.Forward()   // trait: forward
			sample, _ := q.Sample() // trait: output_text

			promF, _ := tok.Encode("Hello, ")
			prom, err := promF.Get()
			if err != nil {
				return err
			}
			tokLimit := len(prom) + 10

			promEmb, _ := alloc.Embeds(len(prom))
			genEmb, _ := alloc.Embeds(1)
			kv, _ := alloc.Pages((tokLimit + m.PageSize - 1) / m.PageSize)

			pos := make([]int, len(prom))
			for i := range pos {
				pos[i] = i
			}
			// Embed and Run return no result: queue order sequences them,
			// and an error they meet executing surfaces at the next Sync —
			// or at Close below.
			text.Embed(prom, pos, promEmb)
			fwd.Run(inferlet.Input(promEmb...), inferlet.AppendKv(kv...), inferlet.Output(genEmb...))

			var out []int
			for i := len(prom); i < tokLimit; i++ {
				// The result is read once, here, at once.
				distR, err := sample.NextDist(genEmb[0])
				if err != nil {
					return err
				}
				dist, err := distR.Get()
				if err != nil {
					return err
				}
				gen := dist.ArgMax()
				out = append(out, gen)
				s.ReportOutputTokens(1)
				text.Embed([]int{gen}, []int{i}, genEmb)
				fwd.Run(inferlet.ReadKv(kv...), inferlet.Input(genEmb...),
					inferlet.AppendKv(kv...), inferlet.Output(genEmb...))
			}
			textF, _ := tok.Decode(out)
			answer, err := textF.Get()
			if err != nil {
				return err
			}
			s.Send(answer)

			// One call drains the queue and reclaims every embed and page
			// allocated through it.
			return q.Close()
		},
	})

	err := engine.RunClient(func() {
		for _, name := range []string{"hello-simple", "hello-raw"} {
			t0 := engine.Now()
			h, err := engine.Launch(pie.Spec(name))
			if err != nil {
				log.Fatal(err)
			}
			msg, _ := h.Recv().Get()
			if err := h.Wait(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-12s -> %q  (virtual %v)\n", name, msg, engine.Now()-t0)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	st := engine.Stats()
	fmt.Printf("\nGPU kernels: %d  batches: %d  busy: %v\n", st.Kernels, st.Batches, st.GPUBusy)
	fmt.Println("Both programs print identical text: the support library is sugar over the raw API.")
}
