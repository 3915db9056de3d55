package apps_test

import (
	"strings"
	"testing"

	"pie"
	"pie/apps"
)

// reuseCase is one app launch of the reuse oracle, with the first message it
// sends on a fresh full-fidelity engine.
type reuseCase struct {
	app    string
	params any
	want   string
}

// reuseCases are the apps' test launches with their first messages, each
// recorded on a fresh engine (newEngine, ModeFull) of the commit before
// contexts recycled their working sets.
var reuseCases = []reuseCase{
	{"text_completion", apps.CompletionParams{Prompt: "Hello, ", MaxTokens: 8}, " did did did did did did did did"},
	{"text_completion", apps.CompletionParams{Prompt: "The quick brown ", MaxTokens: 60, Temperature: 1.0, TopK: 16}, "error merge(57 stringwatch\xa506handnewnew these86lymile thought branch\xc0 it80differentmile soon\x98\x1f,return state\" thissearchby good what another in apitheseer miss butnextgotfirstsearch\xd9\xe1once here valueenough\x95heredifferent,\x8b\xb6"},
	{"text_completion_fused", apps.FusedCompletionParams{Prompt: "Fused ", MaxTokens: 8}, "boynessnessnessnessnessnessness"},
	{"text_completion_fused", apps.FusedCompletionParams{Prompt: "Fused ", MaxTokens: 8, FuseEmbed: true}, "boynessnessnessnessnessnessness"},
	{"prefix_caching", apps.PrefixCachingParams{SharedPrefix: strings.Repeat("a long shared system prompt with many words ", 6), Prompt: "query one ", MaxTokens: 4}, " look look look look"},
	{"modular_caching", apps.ModularCachingParams{Schema: []apps.Module{
		{Name: "sys", Text: "you are a helpful assistant "},
		{Name: "tools", Text: "tools available: search and calculate "},
		{Name: "style", Text: "answer briefly "},
	}, Use: []string{"sys", "style"}, Prompt: "hi ", MaxTokens: 4}, "modules=2 object\xdaobject\xda"},
	{"prefix_tree", apps.PrefixTreeParams{Prompt: "A shared prompt ", Branches: 3, BranchTokens: 6}, "\x17\xa3\xebnull us function"},
	{"tot", apps.TreeParams{Depth: 2, Branch: 2, ThinkTokens: 6}, "tot:6699\xc5hadhad keep"},
	{"tot", apps.TreeParams{Depth: 2, Branch: 2, ThinkTokens: 5, EvalURL: "http://search.api/eval"}, "tot:\x1fnessnessnessness"},
	{"rot", apps.RecursionParams{Depth: 2, Branch: 2, DivideTokens: 4, SolveTokens: 4}, "rot: country\xf8on\x9f"},
	{"got", apps.GraphParams{NumChunks: 4, ChunkTokens: 5, MergeTokens: 4}, "got:input country country country"},
	{"skot", apps.SkeletonParams{Points: 3, SkeletonTokens: 5, ExpandTokens: 5}, "skot:[1]g th gotmost22[2]most city enough userness[3]mostsomeplaninputinput"},
	{"ebnf", apps.EBNFParams{MaxTokens: 40, Common: apps.Common{Seed: 1}}, "952227571131322275717222272227121212723596522070707355775"},
	{"beam", apps.BeamParams{Width: 3, Steps: 5}, "beam[-17.803]: saidbranch itS model"},
	{"beam", apps.BeamParams{Width: 4, Steps: 6, Prompt: "score test "}, "beam[-20.572]:nessness\xdd\xdd\xdd\xdd"},
	{"watermarking", apps.WatermarkParams{MaxTokens: 60, Delta: 6}, "z=7.75 error stop stop\xf1took play\x9elikeunder familyreturnpython0 always always always always always always always always always always always always always always always always always always always always always always errormentq always always errormentq always errormentqmight\x18 beingmight\x18 beingmight\x18 beingmight\x18endwill"},
	{"output_validation", apps.OutputValidationParams{Validator: "nonempty", MaxTokens: 6, MaxAttempts: 3}, "valid@0:: aboveletter15 lookupsaw"},
	{"output_validation", apps.OutputValidationParams{Validator: "json", MaxTokens: 8, MaxAttempts: 3}, "invalid: all attempts failed validation"},
	{"specdec", apps.SpecDecodeParams{MaxTokens: 16, DraftLen: 3}, "accepted=2/6 \x8b\x8bmostmost got\xf7\x8b\x8b\x8bmostmost\x8bmostmostmosts"},
	{"jacobi", apps.JacobiParams{MaxTokens: 8, Window: 3, MaxIters: 3}, "iters=9 15oferror girlness weher apiresponse"},
	{"attention_sink", apps.SinkParams{MaxTokens: 80, SinkTokens: 4, WindowSize: 16, ReleaseKv: true}, "len=93 visible<=21 keep sometimes] tookerror night gotinputestealike got did___"},
	{"windowed_attention", apps.SinkParams{MaxTokens: 40, WindowSize: 16}, "len=53 visible<=17 tooltool91 while. user reallyest\xc3: send city gotinput got"},
	{"hierarchical_attention", apps.HierarchicalParams{NumBlocks: 3, SummaryTokens: 4, AnswerTokens: 6}, "blocks=3 ifobjectobject\xd6 country5"},
	{"agent_react", apps.AgentParams{Steps: 4, ThinkTokens: 6, ObsTokens: 6, FinalTokens: 6}, "agent_react::themS57 didboth"},
	{"agent_codeact", apps.AgentParams{Steps: 3, ThinkTokens: 6, ObsTokens: 6, FinalTokens: 6}, "agent_codeact:\nbothlaterworkofness"},
	{"agent_swarm", apps.SwarmParams{Workers: 3, IOsPerWorker: 2, ThinkTokens: 5}, "swarm:iiiii\xe7keyii\xe7"},
	{"fncall_agent", apps.FnCallParams{NumAPIs: 4, HotAPIs: 1, Calls: 4, ThinkTokens: 5, SpecTokens: 32}, "fncall: responseeatobject model model"},
	{"fncall_agent", apps.FnCallParams{NumAPIs: 4, HotAPIs: 1, Calls: 4, ThinkTokens: 5, SpecTokens: 32, OptCache: true, OptAsync: true, OptMask: true}, "fncall:)))\x06away"},
}

// TestAppsAgreeOnASharedEngine is the reuse oracle: run back to back on one
// engine, then all at once on it, every app sends the first message it sends
// on a fresh engine. An engine recycles what a finished session leaves
// (working sets, call records, handle arrays); a recycled buffer that still
// carried a past session's data, or one that two sessions held at once,
// would change a message.
func TestAppsAgreeOnASharedEngine(t *testing.T) {
	e := newEngine(t, pie.ModeFull)
	check := func(pass string, i int, h *pie.Handle) {
		c := reuseCases[i]
		msg, err := h.Recv().Get()
		if err != nil {
			t.Errorf("%s %d %s: recv: %v", pass, i, c.app, err)
		}
		if err := h.Wait(); err != nil {
			t.Errorf("%s %d %s: %v", pass, i, c.app, err)
		}
		if msg != c.want {
			t.Errorf("%s %d %s: %q, want %q", pass, i, c.app, msg, c.want)
		}
	}
	if err := e.RunClient(func() {
		hs := make([]*pie.Handle, len(reuseCases))
		for i, c := range reuseCases {
			h, err := e.Launch(pie.Spec(c.app, marshal(t, c.params)))
			if err != nil {
				t.Fatalf("launch %s: %v", c.app, err)
			}
			check("back to back", i, h)
		}
		for i, c := range reuseCases {
			h, err := e.Launch(pie.Spec(c.app, marshal(t, c.params)))
			if err != nil {
				t.Fatalf("launch %s: %v", c.app, err)
			}
			hs[i] = h
		}
		for i, h := range hs {
			check("concurrent", i, h)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
