package grammar

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"pie/internal/sim"
	"pie/internal/tokenizer"
)

func mustParse(t *testing.T, src string) *Grammar {
	t.Helper()
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func machine(t *testing.T, src, start string) *Machine {
	t.Helper()
	m, err := mustParse(t, src).Compile(start)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLiteralMatch(t *testing.T) {
	m := machine(t, `greet = "hello" ;`, "")
	if !m.AdvanceString("hello") {
		t.Fatal("failed to consume 'hello'")
	}
	if !m.CanAccept() {
		t.Fatal("not accepting after full literal")
	}
	if m.CanContinue() {
		t.Fatal("claims continuation after complete literal")
	}
}

func TestLiteralReject(t *testing.T) {
	m := machine(t, `greet = "hello" ;`, "")
	if m.AdvanceString("help") {
		t.Fatal("consumed invalid input")
	}
}

func TestAlternation(t *testing.T) {
	src := `b = "yes" | "no" ;`
	for _, s := range []string{"yes", "no"} {
		m := machine(t, src, "")
		if !m.AdvanceString(s) || !m.CanAccept() {
			t.Fatalf("rejected %q", s)
		}
	}
	m := machine(t, src, "")
	if m.AdvanceString("maybe") {
		t.Fatal("accepted 'maybe'")
	}
}

func TestRepetitionAndOption(t *testing.T) {
	src := `word = [ "-" ] { "a".."z" } ;`
	for _, s := range []string{"", "-", "abc", "-abc"} {
		m := machine(t, src, "")
		if !m.AdvanceString(s) || !m.CanAccept() {
			t.Fatalf("rejected %q", s)
		}
	}
	m := machine(t, src, "")
	if m.AdvanceString("ab-") {
		t.Fatal("accepted '-' after letters")
	}
}

func TestRecursiveRule(t *testing.T) {
	src := `
	expr = "(" expr ")" | "x" ;
	`
	for _, s := range []string{"x", "(x)", "(((x)))"} {
		m := machine(t, src, "expr")
		if !m.AdvanceString(s) || !m.CanAccept() {
			t.Fatalf("rejected %q", s)
		}
	}
	for _, s := range []string{"(", "(x", "((x)", ")x("} {
		m := machine(t, src, "expr")
		if m.AdvanceString(s) && m.CanAccept() {
			t.Fatalf("accepted %q", s)
		}
	}
}

func TestLeftRecursionRejected(t *testing.T) {
	if _, err := Parse(`e = e "+" "x" | "x" ;`); err == nil {
		t.Fatal("left recursion accepted")
	}
	// Indirect.
	if _, err := Parse(`a = b "x" ; b = a | "y" ;`); err == nil {
		t.Fatal("indirect left recursion accepted")
	}
}

func TestUndefinedRefRejected(t *testing.T) {
	if _, err := Parse(`a = missing ;`); err == nil {
		t.Fatal("undefined reference accepted")
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{``, ""}, {`a = "x"`, ""}, {`a "x" ;`, ""}, {`a = "x ;`, ""}, {`a = ("x" ;`, ""},
		{`a = "a".."" ;`, ""}, {`a = "z".."a" ;`, ""}, {`a = "x" ; a = "y" ;`, ""},
		// Of two bad rules, the error names the one declared first.
		{`b = "x" nope ; a = gone ;`, `rule "b"`},
	} {
		if _, err := Parse(tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want an error naming %q", tc.src, err, tc.want)
		}
	}
}

func TestCommentsAndQuotes(t *testing.T) {
	m := machine(t, `
	(* a comment *)
	s = 'single' | "dou\"ble" ; (* trailing *)
	`, "")
	if !m.AdvanceString("single") || !m.CanAccept() {
		t.Fatal("rejected single-quoted literal")
	}
	m2 := machine(t, `s = "dou\"ble" ;`, "")
	if !m2.AdvanceString(`dou"ble`) || !m2.CanAccept() {
		t.Fatal("escape handling broken")
	}
}

func TestJSONGrammarAcceptsValidJSON(t *testing.T) {
	valid := []string{
		`{}`, `[]`, `"abc"`, `123`, `-4.5`, `true`, `false`, `null`,
		`{"a": 1, "b": [true, null]}`,
		`[{"nested": {"deep": [1, 2, 3]}}]`,
		`  { "ws" :  "ok" }  `,
	}
	for _, s := range valid {
		m := machine(t, JSONGrammar, "json")
		if !m.AdvanceString(s) || !m.CanAccept() {
			t.Errorf("JSON grammar rejected %q", s)
		}
	}
}

func TestJSONGrammarRejectsInvalid(t *testing.T) {
	invalid := []string{
		`{`, `{"a"}`, `{"a":}`, `[1,]`, `01x`, `tru`, `"unterminated`,
		`{"a" 1}`, `{1: 2}`,
	}
	for _, s := range invalid {
		m := machine(t, JSONGrammar, "json")
		if m.AdvanceString(s) && m.CanAccept() {
			t.Errorf("JSON grammar accepted %q", s)
		}
	}
}

// Property: any string produced by walking the grammar randomly is valid
// JSON per encoding/json.
func TestQuickGeneratedJSONIsValid(t *testing.T) {
	g := mustParse(t, JSONGrammar)
	tok := tokenizer.New()
	vocab := tok.Vocab()
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		m, err := g.Compile("json")
		if err != nil {
			return false
		}
		var out []byte
		for steps := 0; steps < 200; steps++ {
			if m.CanAccept() && (!m.CanContinue() || r.Intn(4) == 0 && len(out) > 0) {
				break
			}
			allowed := m.AllowedTokens(vocab)
			if len(allowed) == 0 {
				return m.CanAccept()
			}
			pick := vocab[allowed[r.Intn(len(allowed))]]
			if !m.AdvanceString(string(pick)) {
				return false
			}
			out = append(out, pick...)
		}
		if !m.CanAccept() {
			// Ran out of steps mid-structure; not a failure of masking.
			return true
		}
		var v interface{}
		return json.Unmarshal(out, &v) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllowedTokens is sound — every allowed token keeps the machine
// alive; a rejected single byte token is truly not viable.
func TestQuickAllowedTokensSound(t *testing.T) {
	g := mustParse(t, JSONGrammar)
	tok := tokenizer.New()
	vocab := tok.Vocab()
	prefixes := []string{``, `{`, `{"a`, `{"key": `, `[1, `, `-1`, `{"x": [tr`}
	for _, p := range prefixes {
		m, _ := g.Compile("json")
		if !m.AdvanceString(p) {
			t.Fatalf("prefix %q rejected", p)
		}
		allowed := m.AllowedSet(vocab)
		for id, viable := range []bool{} {
			_ = id
			_ = viable
		}
		for id := 0; id < len(vocab); id++ {
			if len(vocab[id]) != 1 {
				continue // single-byte soundness check
			}
			probe := m.Clone()
			ok := probe.Advance(vocab[id][0])
			if ok != allowed[id] {
				t.Fatalf("prefix %q token %q: allowed=%v advance=%v", p, vocab[id], allowed[id], ok)
			}
		}
	}
}

func TestAllowedTokensNarrowAfterStructure(t *testing.T) {
	g := mustParse(t, JSONGrammar)
	tok := tokenizer.New()
	vocab := tok.Vocab()
	m, _ := g.Compile("json")
	m.AdvanceString(`{"a"`)
	allowed := m.AllowedSet(vocab)
	colon := tok.Encode(":")[0]
	if !allowed[colon] {
		t.Fatal("':' not allowed after object key")
	}
	rbrace := tok.Encode("}")[0]
	if allowed[rbrace] {
		t.Fatal("'}' allowed after bare object key")
	}
}

func BenchmarkAllowedTokensJSON(b *testing.B) {
	g, _ := Parse(JSONGrammar)
	tok := tokenizer.New()
	vocab := tok.Vocab()
	m, _ := g.Compile("json")
	m.AdvanceString(`{"key": [1, 2, {"x": `)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AllowedTokens(vocab)
	}
}
