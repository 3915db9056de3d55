package apps_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"pie"
	"pie/apps"
)

// newEngine builds a full-fidelity engine with every app registered and
// the agent tool services installed; the cluster's Check must pass when the
// test ends.
func newEngine(t *testing.T, mode pie.ExecutionMode) *pie.Engine {
	t.Helper()
	e := pie.New(pie.Config{Seed: 42, Mode: mode})
	t.Cleanup(func() {
		if err := e.Cluster().Check(); err != nil {
			t.Error(err)
		}
	})
	e.MustRegister(apps.All()...)
	e.RegisterTool("search.api", 40*time.Millisecond, func(req string) string { return "search results" })
	e.RegisterTool("code.exec", 80*time.Millisecond, func(req string) string { return "exit 0" })
	e.RegisterTool("fn.api", 30*time.Millisecond, func(req string) string { return "ok" })
	return e
}

// launch runs one app with params and returns its first message.
func launch(t *testing.T, e *pie.Engine, app string, params interface{}) string {
	t.Helper()
	blob, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	var msg string
	if err := e.RunClient(func() {
		h, err := e.Launch(pie.Spec(app, string(blob)))
		if err != nil {
			t.Errorf("launch %s: %v", app, err)
			return
		}
		msg, err = h.Recv().Get()
		if err != nil {
			t.Errorf("%s recv: %v", app, err)
			return
		}
		if err := h.Wait(); err != nil {
			t.Errorf("%s failed: %v", app, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestTextCompletionApp(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "text_completion", apps.CompletionParams{Prompt: "Hello, ", MaxTokens: 8})
	if msg == "" {
		t.Fatal("empty completion")
	}
}

func TestTextCompletionDeterministic(t *testing.T) {
	a := launch(t, newEngine(t, pie.ModeFull), "text_completion", apps.CompletionParams{Prompt: "abc ", MaxTokens: 6})
	b := launch(t, newEngine(t, pie.ModeFull), "text_completion", apps.CompletionParams{Prompt: "abc ", MaxTokens: 6})
	if a != b {
		t.Fatalf("non-deterministic completion: %q vs %q", a, b)
	}
}

func TestPrefixCachingSecondRunFaster(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	prefix := strings.Repeat("a long shared system prompt with many words ", 6)
	params := apps.PrefixCachingParams{SharedPrefix: prefix, Prompt: "query one ", MaxTokens: 4}
	var first, second time.Duration
	var m1, m2 string
	if err := e.RunClient(func() {
		t0 := e.Now()
		h1, _ := e.Launch(pie.Spec("prefix_caching", marshal(t, params)))
		m1, _ = h1.Recv().Get()
		h1.Wait()
		first = e.Now() - t0

		t0 = e.Now()
		h2, _ := e.Launch(pie.Spec("prefix_caching", marshal(t, params)))
		m2, _ = h2.Recv().Get()
		h2.Wait()
		second = e.Now() - t0
	}); err != nil {
		t.Fatal(err)
	}
	if second >= first {
		t.Fatalf("cached run (%v) not faster than cold run (%v)", second, first)
	}
	if m1 != m2 {
		t.Fatalf("cache changed output: %q vs %q", m1, m2)
	}
}

func TestModularCachingComposition(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	schema := []apps.Module{
		{Name: "sys", Text: "you are a helpful assistant "},
		{Name: "tools", Text: "tools available: search and calculate "},
		{Name: "style", Text: "answer briefly "},
	}
	msg := launch(t, e, "modular_caching", apps.ModularCachingParams{
		Schema: schema, Use: []string{"sys", "style"}, Prompt: "hi ", MaxTokens: 4,
	})
	if !strings.HasPrefix(msg, "modules=2") {
		t.Fatalf("unexpected report %q", msg)
	}
}

func TestTreeOfThought(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "tot", apps.TreeParams{Depth: 2, Branch: 2, ThinkTokens: 6})
	if !strings.HasPrefix(msg, "tot:") {
		t.Fatalf("unexpected output %q", msg)
	}
}

func TestTreeOfThoughtWithToolEval(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "tot", apps.TreeParams{
		Depth: 2, Branch: 2, ThinkTokens: 5, EvalURL: "http://search.api/eval",
	})
	if !strings.HasPrefix(msg, "tot:") {
		t.Fatalf("unexpected output %q", msg)
	}
	if e.Stats().ToolCalls != 4 {
		t.Fatalf("tool calls = %d, want 4 (2 levels × 2 branches)", e.Stats().ToolCalls)
	}
}

func TestRecursionOfThought(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "rot", apps.RecursionParams{Depth: 2, Branch: 2, DivideTokens: 4, SolveTokens: 4})
	if !strings.HasPrefix(msg, "rot:") {
		t.Fatalf("unexpected output %q", msg)
	}
}

func TestGraphOfThought(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "got", apps.GraphParams{NumChunks: 4, ChunkTokens: 5, MergeTokens: 4})
	if !strings.HasPrefix(msg, "got:") {
		t.Fatalf("unexpected output %q", msg)
	}
}

func TestSkeletonOfThought(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "skot", apps.SkeletonParams{Points: 3, SkeletonTokens: 5, ExpandTokens: 5})
	if !strings.HasPrefix(msg, "skot:") || !strings.Contains(msg, "[3]") {
		t.Fatalf("unexpected output %q", msg)
	}
}

// The headline structured-generation property: grammar-constrained output
// from an untrained model is valid JSON.
func TestEBNFGeneratesValidJSON(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		e := pie.New(pie.Config{Seed: seed, Mode: pie.ModeFull})
		e.MustRegister(apps.All()...)
		msg := launch(t, e, "ebnf", apps.EBNFParams{MaxTokens: 40, Common: apps.Common{Seed: seed}})
		var v interface{}
		if err := json.Unmarshal([]byte(msg), &v); err != nil {
			t.Fatalf("seed %d: EBNF output %q is not valid JSON: %v", seed, msg, err)
		}
	}
}

// A grammar-constrained program says the same thing on every same-seed
// run. In timing mode the untrained distribution is often masked out
// entirely, so the fallback and the budget-end steering pick most tokens:
// they must pick in token-id order, not in map order.
func TestEBNFOutputDeterministic(t *testing.T) {
	run := func(seed uint64) string {
		e := pie.New(pie.Config{Seed: seed, Mode: pie.ModeTiming})
		e.MustRegister(apps.All()...)
		return launch(t, e, "ebnf", apps.EBNFParams{MaxTokens: 40, Common: apps.Common{Seed: seed}})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		first := run(seed)
		for i := 0; i < 3; i++ {
			if again := run(seed); again != first {
				t.Fatalf("seed %d: rerun %d said %q, first run %q", seed, i+1, again, first)
			}
		}
	}
}

func TestBeamSearch(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "beam", apps.BeamParams{Width: 3, Steps: 5})
	if !strings.HasPrefix(msg, "beam[") {
		t.Fatalf("unexpected output %q", msg)
	}
}

// Beam search must find a sequence at least as likely as greedy decoding.
func TestBeamBeatsGreedyScore(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "beam", apps.BeamParams{Width: 4, Steps: 6, Prompt: "score test "})
	var score float64
	if _, err := fmt.Sscanf(msg, "beam[%f]", &score); err != nil {
		t.Fatalf("cannot parse %q", msg)
	}
	if score > 0 {
		t.Fatalf("positive log-prob %f", score)
	}
}

func TestWatermarkDetectable(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "watermarking", apps.WatermarkParams{MaxTokens: 60, Delta: 6})
	var z float64
	if _, err := fmt.Sscanf(msg, "z=%f", &z); err != nil {
		t.Fatalf("cannot parse %q", msg)
	}
	if z < 2 {
		t.Fatalf("watermark z-score %.2f below detection threshold", z)
	}
}

func TestWatermarkAbsentInPlainText(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "text_completion", apps.CompletionParams{
		Prompt: "The quick brown ", MaxTokens: 60, Temperature: 1.0, TopK: 16,
	})
	// Recover tokens by re-encoding is lossy; instead check a freshly
	// sampled stream's z-score via the detector over pseudo tokens.
	toks := []int{}
	for i, r := range msg {
		toks = append(toks, int(r)%1000+4)
		if i > 80 {
			break
		}
	}
	if z := apps.WatermarkZScore(toks, 0xC0FFEE, 0.5); z > 3 {
		t.Fatalf("unwatermarked text scored z=%.2f", z)
	}
}

func TestOutputValidationAcceptsNonEmpty(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "output_validation", apps.OutputValidationParams{
		Validator: "nonempty", MaxTokens: 6, MaxAttempts: 3,
	})
	if !strings.HasPrefix(msg, "valid@0") {
		t.Fatalf("unexpected output %q", msg)
	}
}

func TestOutputValidationRetries(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	// A random model essentially never emits valid JSON unconstrained:
	// all attempts fail, every retry reusing the prompt's KV.
	msg := launch(t, e, "output_validation", apps.OutputValidationParams{
		Validator: "json", MaxTokens: 8, MaxAttempts: 3,
	})
	if !strings.HasPrefix(msg, "invalid") && !strings.HasPrefix(msg, "valid@") {
		t.Fatalf("unexpected output %q", msg)
	}
}

func TestSpeculativeDecoding(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "specdec", apps.SpecDecodeParams{MaxTokens: 16, DraftLen: 3})
	if !strings.HasPrefix(msg, "accepted=") {
		t.Fatalf("unexpected output %q", msg)
	}
}

func TestJacobiDecoding(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "jacobi", apps.JacobiParams{MaxTokens: 8, Window: 3, MaxIters: 3})
	if !strings.HasPrefix(msg, "iters=") {
		t.Fatalf("unexpected output %q", msg)
	}
}

func TestAttentionSinkBoundsKV(t *testing.T) {
	e := newEngine(t, pie.ModeTiming)
	msg := launch(t, e, "attention_sink", apps.SinkParams{
		MaxTokens: 80, SinkTokens: 4, WindowSize: 16, ReleaseKv: true,
	})
	if !strings.HasPrefix(msg, "len=") {
		t.Fatalf("unexpected output %q", msg)
	}
}

func TestWindowedAttention(t *testing.T) {
	e := newEngine(t, pie.ModeTiming)
	msg := launch(t, e, "windowed_attention", apps.SinkParams{MaxTokens: 40, WindowSize: 16})
	if !strings.Contains(msg, "visible<=17") {
		t.Fatalf("window bound missing in %q", msg)
	}
}

func TestHierarchicalAttention(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	msg := launch(t, e, "hierarchical_attention", apps.HierarchicalParams{
		NumBlocks: 3, SummaryTokens: 4, AnswerTokens: 6,
	})
	if !strings.HasPrefix(msg, "blocks=3") {
		t.Fatalf("unexpected output %q", msg)
	}
}

func TestAgentReACT(t *testing.T) {
	e := newEngine(t, pie.ModeTiming)
	msg := launch(t, e, "agent_react", apps.AgentParams{Steps: 4, ThinkTokens: 6, ObsTokens: 6, FinalTokens: 6})
	if !strings.HasPrefix(msg, "agent_react:") {
		t.Fatalf("unexpected output %q", msg)
	}
	if e.Stats().ToolCalls != 4 {
		t.Fatalf("tool calls = %d, want 4", e.Stats().ToolCalls)
	}
}

func TestAgentCodeACT(t *testing.T) {
	e := newEngine(t, pie.ModeTiming)
	msg := launch(t, e, "agent_codeact", apps.AgentParams{Steps: 3, ThinkTokens: 6, ObsTokens: 6, FinalTokens: 6})
	if !strings.HasPrefix(msg, "agent_codeact:") {
		t.Fatalf("unexpected output %q", msg)
	}
}

func TestAgentSwarm(t *testing.T) {
	e := newEngine(t, pie.ModeTiming)
	msg := launch(t, e, "agent_swarm", apps.SwarmParams{Workers: 3, IOsPerWorker: 2, ThinkTokens: 5})
	if !strings.HasPrefix(msg, "swarm:") {
		t.Fatalf("unexpected output %q", msg)
	}
	st := e.Stats()
	if st.Launches != 4 { // coordinator + 3 workers
		t.Fatalf("launches = %d, want 4", st.Launches)
	}
	if st.ToolCalls != 6 {
		t.Fatalf("tool calls = %d, want 6", st.ToolCalls)
	}
}

func TestFunctionCallAgentAllOptLevels(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache bool
		async bool
		mask  bool
	}{
		{"baseline", false, false, false},
		{"cache", true, false, false},
		{"cache+async", true, true, false},
		{"cache+async+mask", true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(t, pie.ModeTiming)
			msg := launch(t, e, "fncall_agent", apps.FnCallParams{
				NumAPIs: 4, HotAPIs: 1, Calls: 4, ThinkTokens: 5, SpecTokens: 32,
				OptCache: tc.cache, OptAsync: tc.async, OptMask: tc.mask,
			})
			if !strings.HasPrefix(msg, "fncall:") {
				t.Fatalf("unexpected output %q", msg)
			}
		})
	}
}

// Each optimization must reduce end-to-end latency on its target workload.
func TestFunctionCallOptimizationsReduceLatency(t *testing.T) {
	runWith := func(cache, async, mask bool) time.Duration {
		e := newEngine(t, pie.ModeTiming)
		var took time.Duration
		params := apps.FnCallParams{
			NumAPIs: 6, HotAPIs: 2, Calls: 6, ThinkTokens: 6, SpecTokens: 64,
			OptCache: cache, OptAsync: async, OptMask: mask,
		}
		if err := e.RunClient(func() {
			// Warm the spec cache so OptCache measures steady state.
			if cache {
				h, _ := e.Launch(pie.Spec("fncall_agent", marshal(t, params)))
				h.Recv().Get()
				h.Wait()
			}
			t0 := e.Now()
			h, _ := e.Launch(pie.Spec("fncall_agent", marshal(t, params)))
			h.Recv().Get()
			h.Wait()
			took = e.Now() - t0
		}); err != nil {
			t.Fatal(err)
		}
		return took
	}
	base := runWith(false, false, false)
	withCache := runWith(true, false, false)
	withAsync := runWith(true, true, false)
	t.Logf("base=%v +cache=%v +async=%v", base, withCache, withAsync)
	if withCache >= base {
		t.Errorf("opt #1 (cache) did not help: %v >= %v", withCache, base)
	}
	if withAsync >= withCache {
		t.Errorf("opt #2 (async) did not help: %v >= %v", withAsync, withCache)
	}
}

// TestFrontierKeepsAppText: the lazy frontier drops a forward nobody reads,
// never a token. Full-fidelity output of a Generate app, a multi-turn agent
// (each observation prefill carries the previous turn's last token), a
// ParallelGenerate app and the hand-written beam loop, recorded at the
// commit before Append became lazy.
func TestFrontierKeepsAppText(t *testing.T) {
	params := map[string]interface{}{
		"text_completion": apps.CompletionParams{Prompt: "The lazy frontier ", MaxTokens: 12},
		"agent_react":     apps.AgentParams{Steps: 3, ThinkTokens: 6, ObsTokens: 6, FinalTokens: 6},
		"tot":             apps.TreeParams{Depth: 2, Branch: 2, ThinkTokens: 6},
		"beam":            apps.BeamParams{Prompt: "Beams ", Width: 3, Steps: 6},
	}
	for _, g := range []struct {
		seed      uint64
		app, want string
	}{
		{42, "text_completion", "\xa1placein\xeb\xa9did was\xa5here play5252"},
		{42, "agent_react", "agent_react:the57laterbothhand"},
		{42, "tot", "tot:6699\xc5hadhad keep"},
		{42, "beam", "beam[-20.389]: lookoldIIII"},
		{7, "text_completion", "60 below samecachecachecachecache40\x94 through through through"},
		{7, "agent_react", "agent_react:differentdodododo will"},
		{7, "tot", "tot:) cut cut cut cutapi"},
		{7, "beam", "beam[-22.335]:mthe,were] great"},
	} {
		e := pie.New(pie.Config{Seed: g.seed, Mode: pie.ModeFull})
		e.MustRegister(apps.All()...)
		e.RegisterTool("search.api", 40*time.Millisecond, func(req string) string { return "search results" })
		if got := launch(t, e, g.app, params[g.app]); got != g.want {
			t.Errorf("seed %d %s: %q, want %q", g.seed, g.app, got, g.want)
		}
	}
}

func marshal(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestAllAppsHaveDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range apps.All() {
		if p.Name == "" || p.Run == nil || p.BinarySize == 0 {
			t.Errorf("program %q incompletely defined", p.Name)
		}
		if seen[p.Name] {
			t.Errorf("duplicate program name %q", p.Name)
		}
		seen[p.Name] = true
	}
	if len(seen) < 20 {
		t.Fatalf("only %d programs registered", len(seen))
	}
}
