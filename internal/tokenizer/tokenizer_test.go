package tokenizer

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripBasic(t *testing.T) {
	tok := New()
	cases := []string{
		"",
		"Hello, world",
		"the quick brown fox jumps over the lazy dog",
		"Thought: I should call the search function.\nAction: search(\"weather\")",
		`{"key": "value", "n": 42}`,
		"unicode: héllo ✓ 日本語",
		"\x00\x01\xff binary bytes",
		strings.Repeat("a", 1000),
	}
	for _, s := range cases {
		ids := tok.Encode(s)
		if got := tok.Decode(ids); got != s {
			t.Errorf("roundtrip failed:\n in: %q\nout: %q", s, got)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	tok := New()
	f := func(b []byte) bool {
		s := string(b)
		return tok.Decode(tok.Encode(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyPrefersLongestMatch(t *testing.T) {
	tok := New()
	// " the" exists as a single lexicon token; encoding "a the" must not
	// split it into " "+"the".
	ids := tok.Encode(" the")
	if len(ids) != 1 {
		t.Fatalf("Encode(\" the\") = %d tokens, want 1", len(ids))
	}
}

func TestCompressionOnEnglish(t *testing.T) {
	tok := New()
	s := "the people of the world want to know what the answer is and how to find it"
	ids := tok.Encode(s)
	if len(ids) >= len(s) {
		t.Fatalf("no compression: %d tokens for %d bytes", len(ids), len(s))
	}
	if ratio := float64(len(s)) / float64(len(ids)); ratio < 2 {
		t.Fatalf("compression ratio %.2f, want >= 2 on common English", ratio)
	}
}

func TestByteFallback(t *testing.T) {
	tok := New()
	ids := tok.Encode("\x07")
	if len(ids) != 1 || ids[0] != ByteBase+7 {
		t.Fatalf("Encode(0x07) = %v, want [%d]", ids, ByteBase+7)
	}
}

func TestVocabConsistency(t *testing.T) {
	tok := New()
	v := tok.Vocab()
	if len(v) != tok.VocabSize() {
		t.Fatalf("Vocab len %d != VocabSize %d", len(v), tok.VocabSize())
	}
	for id, b := range v {
		if got := tok.TokenBytes(id); string(got) != string(b) {
			t.Fatalf("TokenBytes(%d) mismatch", id)
		}
	}
	// All lexicon entries must decode to themselves.
	for id := lexBase; id < tok.VocabSize(); id++ {
		if len(v[id]) == 0 {
			t.Fatalf("empty lexicon token %d", id)
		}
	}
}

func TestSpecials(t *testing.T) {
	tok := New()
	for _, id := range []int{PAD, BOS, EOS} {
		if !tok.IsSpecial(id) {
			t.Errorf("IsSpecial(%d) = false", id)
		}
		if b := tok.TokenBytes(id); len(b) != 0 {
			t.Errorf("special %d decodes to %q", id, b)
		}
	}
	if tok.IsSpecial(ByteBase) {
		t.Error("byte token marked special")
	}
}

func TestDeterministicVocabAssignment(t *testing.T) {
	a, b := New(), build()
	if New() != a || a == b {
		t.Fatal("New must return one shared instance and build a fresh one")
	}
	if a.VocabSize() != b.VocabSize() {
		t.Fatal("vocab size differs across constructions")
	}
	s := "stable ids are load-bearing for cached KV"
	ia, ib := a.Encode(s), b.Encode(s)
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatal("token ids differ across constructions")
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	tok := New()
	s := strings.Repeat("the people of the world want to know the answer ", 20)
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok.Encode(s)
	}
}
