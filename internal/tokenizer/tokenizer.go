// Package tokenizer implements a deterministic, self-contained tokenizer
// with the structure of modern LLM tokenizers: a lexicon of common words
// and subwords (with leading-space variants, BPE-style) over a byte-level
// fallback alphabet, so any byte string round-trips exactly.
//
// The serving system treats tokenization as an inference-layer service
// (the Tokenize trait, §4.2 of the paper); this package is the model-side
// implementation behind it.
package tokenizer

import (
	"sort"
	"sync"
)

// Special token ids.
const (
	PAD = 0
	BOS = 1
	EOS = 2
	// ByteBase is the id of byte 0x00; byte b is token ByteBase+b.
	ByteBase = 4
	lexBase  = ByteBase + 256
)

// Tokenizer converts between byte strings and token ids via greedy
// longest-match over its lexicon with byte fallback.
type Tokenizer struct {
	lexicon []string // id - lexBase -> token text
	// nodes is a byte trie over the lexicon. Node 0 is the root; a node's
	// children are the contiguous run nodes[lo:hi], ascending by edge byte.
	// root indexes the root's children by byte (0: no lexicon entry starts
	// with it), the one fan-out wide enough to be worth a table.
	nodes []trieNode
	root  [256]int32
}

type trieNode struct {
	edge   byte  // byte on the edge from the parent
	id     int32 // token whose text ends here, 0 if none
	lo, hi int32 // children
}

// New returns the standard tokenizer shared by all models in the catalog.
// It is built once per process: no method writes to a Tokenizer, so every
// caller and goroutine may share it.
func New() *Tokenizer { return standard() }

var standard = sync.OnceValue(build)

// build lays out the standard lexicon and its trie.
func build() *Tokenizer {
	t := &Tokenizer{}
	seen := make(map[string]bool)
	add := func(s string) {
		if s == "" || seen[s] {
			return
		}
		seen[s] = true
		t.lexicon = append(t.lexicon, s)
	}
	for _, w := range baseWords {
		add(w)
		add(" " + w)
	}
	for _, s := range suffixes {
		add(s)
	}
	for _, p := range punct {
		add(p)
	}
	// Digit pairs make numeric workloads realistic without a huge lexicon.
	for a := '0'; a <= '9'; a++ {
		for b := '0'; b <= '9'; b++ {
			add(string(a) + string(b))
		}
	}
	sort.Strings(t.lexicon) // stable id assignment independent of list order
	t.buildTrie()
	return t
}

// buildTrie lays the sorted lexicon out breadth-first: the entries sharing
// a prefix are a contiguous range, and so are the children of its node.
func (t *Tokenizer) buildTrie() {
	type span struct{ node, lo, hi, depth int } // lexicon[lo:hi] share their first depth bytes
	t.nodes = []trieNode{{}}
	queue := []span{{0, 0, len(t.lexicon), 0}}
	for qi := 0; qi < len(queue); qi++ {
		sp := queue[qi]
		lo := sp.lo
		if len(t.lexicon[lo]) == sp.depth { // the prefix itself is an entry; it sorts first
			t.nodes[sp.node].id = int32(lexBase + lo)
			lo++
		}
		t.nodes[sp.node].lo = int32(len(t.nodes))
		for lo < sp.hi {
			edge := t.lexicon[lo][sp.depth]
			end := lo
			for end < sp.hi && t.lexicon[end][sp.depth] == edge {
				end++
			}
			queue = append(queue, span{len(t.nodes), lo, end, sp.depth + 1})
			t.nodes = append(t.nodes, trieNode{edge: edge})
			lo = end
		}
		t.nodes[sp.node].hi = int32(len(t.nodes))
	}
	for c := t.nodes[0].lo; c < t.nodes[0].hi; c++ {
		t.root[t.nodes[c].edge] = c
	}
}

// VocabSize returns the total number of token ids.
func (t *Tokenizer) VocabSize() int { return lexBase + len(t.lexicon) }

// Encode tokenizes s greedily: at each position the longest lexicon match
// wins; otherwise a single byte token is emitted.
func (t *Tokenizer) Encode(s string) []int {
	out := make([]int, 0, len(s)/3+8)
	for i := 0; i < len(s); {
		// Walk the trie from s[i], remembering the last entry passed.
		id, next := ByteBase+int(s[i]), i+1
		n := t.root[s[i]]
		for j := i + 1; n != 0; j++ {
			nd := &t.nodes[n]
			if nd.id != 0 {
				id, next = int(nd.id), j
			}
			if j == len(s) {
				break
			}
			n = 0
			for c := nd.lo; c < nd.hi; c++ {
				if t.nodes[c].edge == s[j] {
					n = c
					break
				}
			}
		}
		out = append(out, id)
		i = next
	}
	return out
}

// Decode reconstructs the exact byte string for ids; special tokens decode
// to the empty string.
func (t *Tokenizer) Decode(ids []int) string {
	var b []byte
	for _, id := range ids {
		b = append(b, t.TokenBytes(id)...)
	}
	return string(b)
}

// TokenBytes returns the byte expansion of a single token id.
func (t *Tokenizer) TokenBytes(id int) []byte {
	switch {
	case id < ByteBase:
		return nil
	case id < lexBase:
		return []byte{byte(id - ByteBase)}
	case id-lexBase < len(t.lexicon):
		return []byte(t.lexicon[id-lexBase])
	}
	return nil
}

// Vocab returns the byte expansion of every token id, indexed by id
// (the get_vocabs API).
func (t *Tokenizer) Vocab() [][]byte {
	v := make([][]byte, t.VocabSize())
	for id := range v {
		v[id] = t.TokenBytes(id)
	}
	return v
}

// IsSpecial reports whether id is a control token.
func (t *Tokenizer) IsSpecial(id int) bool { return id < ByteBase }

var baseWords = []string{
	"the", "of", "and", "a", "to", "in", "is", "you", "that", "it",
	"he", "was", "for", "on", "are", "as", "with", "his", "they", "I",
	"at", "be", "this", "have", "from", "or", "one", "had", "by", "word",
	"but", "not", "what", "all", "were", "we", "when", "your", "can", "said",
	"there", "use", "an", "each", "which", "she", "do", "how", "their", "if",
	"will", "up", "other", "about", "out", "many", "then", "them", "these", "so",
	"some", "her", "would", "make", "like", "him", "into", "time", "has", "look",
	"two", "more", "write", "go", "see", "number", "no", "way", "could", "people",
	"my", "than", "first", "water", "been", "call", "who", "oil", "its", "now",
	"find", "long", "down", "day", "did", "get", "come", "made", "may", "part",
	"over", "new", "sound", "take", "only", "little", "work", "know", "place", "year",
	"live", "me", "back", "give", "most", "very", "after", "thing", "our", "just",
	"name", "good", "sentence", "man", "think", "say", "great", "where", "help", "through",
	"much", "before", "line", "right", "too", "mean", "old", "any", "same", "tell",
	"boy", "follow", "came", "want", "show", "also", "around", "form", "three", "small",
	"set", "put", "end", "does", "another", "well", "large", "must", "big", "even",
	"such", "because", "turn", "here", "why", "ask", "went", "men", "read", "need",
	"land", "different", "home", "us", "move", "try", "kind", "hand", "picture", "again",
	"change", "off", "play", "spell", "air", "away", "animal", "house", "point", "page",
	"letter", "mother", "answer", "found", "study", "still", "learn", "should", "America", "world",
	"high", "every", "near", "add", "food", "between", "own", "below", "country", "plant",
	"last", "school", "father", "keep", "tree", "never", "start", "city", "earth", "eye",
	"light", "thought", "head", "under", "story", "saw", "left", "don't", "few", "while",
	"along", "might", "close", "something", "seem", "next", "hard", "open", "example", "begin",
	"life", "always", "those", "both", "paper", "together", "got", "group", "often", "run",
	"important", "until", "children", "side", "feet", "car", "mile", "night", "walk", "white",
	"sea", "began", "grow", "took", "river", "four", "carry", "state", "once", "book",
	"hear", "stop", "without", "second", "later", "miss", "idea", "enough", "eat", "face",
	"watch", "far", "Indian", "really", "almost", "let", "above", "girl", "sometimes", "mountain",
	"cut", "young", "talk", "soon", "list", "song", "being", "leave", "family", "it's",
	// Domain vocabulary: agents, tools, reasoning, code, JSON.
	"function", "call", "action", "observation", "thought", "final", "answer", "search",
	"query", "result", "tool", "agent", "code", "execute", "python", "javascript",
	"return", "value", "string", "true", "false", "null", "object", "array",
	"api", "request", "response", "http", "error", "status", "data", "key",
	"model", "token", "prompt", "generate", "context", "cache", "page", "memory",
	"solve", "step", "reason", "branch", "merge", "plan", "summary", "document",
	"weather", "temperature", "location", "calculate", "lookup", "fetch", "send",
	"message", "user", "system", "assistant", "input", "output", "args", "spec",
}

var suffixes = []string{
	"ing", "ed", "er", "es", "ly", "tion", "ment", "ness", "able", "est",
	" th", "re", "st", "nd", "ck", "ll", "ou", "ea", "ar", "or",
}

var punct = []string{
	" ", "  ", "\n", "\n\n", "\t", ". ", ", ", ": ", "; ", "! ",
	"? ", "'", "\"", "(", ")", "[", "]", "{", "}", "{\"",
	"\"}", "\":", ",\"", ".", ",", ":", ";", "->", "=>", "==",
	"</", "/>", "<|", "|>", "```", "##", "--", "...", "$", "%",
}
