package tokenizer

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// scanEncoder is the encoder this package had before the trie: lexicon
// entries bucketed by first byte, longest first, each tried in turn. Encode
// must return exactly its ids.
type scanEncoder struct {
	lexicon []string
	byFirst [256][]int
}

func newScanEncoder(t *Tokenizer) *scanEncoder {
	e := &scanEncoder{lexicon: t.lexicon}
	for i, s := range t.lexicon {
		e.byFirst[s[0]] = append(e.byFirst[s[0]], lexBase+i)
	}
	for b := range e.byFirst {
		ids := e.byFirst[b]
		sort.Slice(ids, func(i, j int) bool {
			return len(e.lexicon[ids[i]-lexBase]) > len(e.lexicon[ids[j]-lexBase])
		})
	}
	return e
}

func (e *scanEncoder) encode(s string) []int {
	var out []int
	for i := 0; i < len(s); {
		matched := false
		for _, id := range e.byFirst[s[i]] {
			lex := e.lexicon[id-lexBase]
			if len(lex) <= len(s)-i && s[i:i+len(lex)] == lex {
				out = append(out, id)
				i += len(lex)
				matched = true
				break
			}
		}
		if !matched {
			out = append(out, ByteBase+int(s[i]))
			i++
		}
	}
	return out
}

func sameIDs(t *testing.T, tok *Tokenizer, old *scanEncoder, s string) {
	t.Helper()
	got, want := tok.Encode(s), old.encode(s)
	if len(got) != len(want) {
		t.Fatalf("Encode(%q): %d ids %v, the scan gives %d ids %v", s, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Encode(%q): id %d is %d, the scan gives %d", s, i, got[i], want[i])
		}
	}
}

func TestEncodeMatchesScan(t *testing.T) {
	tok := New()
	old := newScanEncoder(tok)
	r := rand.New(rand.NewSource(1))
	pick := func(list []string) string { return list[r.Intn(len(list))] }

	// Every lexicon entry, alone and followed by every byte: the walk must
	// stop, back off and resume exactly where the scan does.
	for _, lex := range tok.lexicon {
		sameIDs(t, tok, old, lex)
		for b := 0; b < 256; b++ {
			sameIDs(t, tok, old, lex+string([]byte{byte(b)}))
		}
	}
	for i := 0; i < 300; i++ {
		var prose, doc strings.Builder
		for w := r.Intn(60); w >= 0; w-- {
			prose.WriteString(pick(baseWords))
			prose.WriteString(pick(suffixes))
			prose.WriteString(pick(punct))
			if r.Intn(4) == 0 {
				prose.WriteString(" ")
			}
		}
		sameIDs(t, tok, old, prose.String())
		doc.WriteString("{")
		for k := r.Intn(12); k >= 0; k-- {
			doc.WriteString(`"` + pick(baseWords) + `": `)
			switch r.Intn(4) {
			case 0:
				doc.WriteString(`"` + pick(baseWords) + " " + pick(baseWords) + `"`)
			case 1:
				doc.WriteString(strings.Repeat("7", r.Intn(9)) + "42")
			case 2:
				doc.WriteString(`[true, false, null]`)
			default:
				doc.WriteString(`{"` + pick(baseWords) + `": -0.5e3}`)
			}
			doc.WriteString(", ")
		}
		doc.WriteString("}")
		sameIDs(t, tok, old, doc.String())
		raw := make([]byte, r.Intn(80))
		r.Read(raw)
		sameIDs(t, tok, old, string(raw))
	}
}

func FuzzEncodeMatchesScan(f *testing.F) {
	tok := New()
	old := newScanEncoder(tok)
	for _, s := range []string{"", "the people of the world", `{"key": [1, 2, {"x": "it's"}]}`, "  \n\n\t...", "\xff\xfe", "somethingsometimes"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sameIDs(t, tok, old, s)
		if got := tok.Decode(tok.Encode(s)); got != s {
			t.Fatalf("round trip of %q gave %q", s, got)
		}
	})
}
