package infer_test

import (
	"slices"
	"testing"
	"time"

	"pie"
	"pie/apps"
	"pie/internal/infer"
	"pie/internal/model"
)

// TestAppsLeaveTheTokenTableAlone: api.Dist is read-only. In timing mode
// every get_next_dist of every session in the process is a window of one
// table, so a sampler or program that sorted, filtered or rescaled a
// distribution in place would corrupt every later session. Run all the
// Table 2 programs, greedy and sampled, and check no entry has moved.
func TestAppsLeaveTheTokenTableAlone(t *testing.T) {
	e := pie.New(pie.Config{Seed: 42, Mode: pie.ModeTiming})
	programs := apps.All()
	if len(programs) != 23 {
		t.Fatalf("%d programs, want the 23 of apps.All", len(programs))
	}
	e.MustRegister(programs...)
	for _, tool := range []string{"search.api", "code.exec", "fn.api"} {
		e.RegisterTool(tool, time.Millisecond, func(string) string { return "ok" })
	}
	// Every catalog model has the one tokenizer, so the engine's runtimes
	// share the one table of its vocabulary size.
	table := infer.PseudoTable(model.StandardCatalog(42).Models["llama-1b"].VocabSize())
	want := slices.Clone(table)
	if err := e.RunClient(func() {
		for _, sampling := range []string{``, `"temperature":0.8,"top_k":40,"seed":7`} {
			for _, p := range programs {
				args := "{" + sampling + "}"
				switch p.Name {
				case "agent_swarm_worker":
					continue // launched by agent_swarm; alone it waits for a task forever
				case "prefix_caching", "modular_caching": // no default prompt
					args = `{"shared_prefix":"you are a helpful assistant ","prompt":"hi ",` +
						`"schema":[{"name":"sys","text":"you are a helpful assistant "}],"use":["sys"]}`
				}
				h, err := e.Launch(pie.Spec(p.Name, args))
				if err != nil {
					t.Errorf("launch %s: %v", p.Name, err)
					continue
				}
				if err := h.Wait(); err != nil {
					t.Errorf("%s %s: %v", p.Name, args, err)
				}
				if !slices.Equal(table, want) {
					t.Errorf("%s %s wrote to the shared token table", p.Name, args)
					return
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
