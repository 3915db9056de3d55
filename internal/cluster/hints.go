package cluster

import (
	"encoding/json"
	"strings"
)

// affinityHints extracts KV-affinity keys from a launch's first argument,
// the JSON parameter blob every app takes: an explicit "affinity" routing
// hint, then the "cache_key" the prefix-caching apps export under. It
// returns the non-empty ones in that order, n of them. scanHints reads them
// in place, as substrings of the blob; a blob it does not take goes to
// encoding/json, which decides every blob alike.
func affinityHints(args []string) (hints [2]string, n int) {
	if len(args) == 0 || args[0] == "" {
		return hints, 0
	}
	vals, ok := scanHints(args[0])
	if !ok {
		var params struct {
			Affinity string `json:"affinity"`
			CacheKey string `json:"cache_key"`
		}
		if err := json.Unmarshal([]byte(args[0]), &params); err != nil {
			return hints, 0
		}
		vals = [2]string{params.Affinity, params.CacheKey}
	}
	for _, h := range vals {
		if h != "" {
			hints[n] = h
			n++
		}
	}
	return hints, n
}

// hintNames are the members affinityHints reads, in hint order.
var hintNames = [2]string{"affinity", "cache_key"}

// scanHints reads the last top-level member of each of hintNames from the
// JSON object s, matching names as encoding/json does (ASCII case folded).
// ok is false for a blob it does not take, which leaves the answer to
// encoding/json: one json.Valid refuses (the check Unmarshal makes first),
// anything but an object at the top, a member name with an escape or a
// byte past ASCII, and a member of either name whose value is not a string
// free of both.
func scanHints(s string) (vals [2]string, ok bool) {
	if !json.Valid([]byte(s)) {
		return vals, false
	}
	// The blob is valid JSON, so the scan below needs no bounds checks of
	// its own: every member name is a string followed by a colon, and every
	// value by a comma or the object's close.
	i := skipSpace(s, 0)
	if s[i] != '{' {
		return vals, false
	}
	for i = skipSpace(s, i+1); s[i] != '}'; {
		end := endOfString(s, i)
		name := s[i+1 : end-1]
		if !plain(name) {
			return vals, false
		}
		i = skipSpace(s, skipSpace(s, end)+1) // past the colon
		end = endOfValue(s, i)
		if f := hintField(name); f >= 0 {
			v := s[i:end]
			if v[0] != '"' || !plain(v[1:len(v)-1]) {
				return vals, false
			}
			vals[f] = v[1 : len(v)-1]
		}
		if i = skipSpace(s, end); s[i] == ',' {
			i = skipSpace(s, i+1)
		}
	}
	return vals, true
}

// hintField returns the index in hintNames of the member an ASCII name
// decodes into, or -1.
func hintField(name string) int {
	for f, h := range hintNames {
		if strings.EqualFold(name, h) {
			return f
		}
	}
	return -1
}

// plain reports that a JSON string's contents hold no escape and no byte
// past ASCII, so they decode to themselves.
func plain(v string) bool {
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' || v[i] >= 0x80 {
			return false
		}
	}
	return true
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}

// endOfString returns the index past the string whose opening quote is
// s[i], in a valid document.
func endOfString(s string, i int) int {
	for i++; s[i] != '"'; i++ {
		if s[i] == '\\' {
			i++
		}
	}
	return i + 1
}

// endOfValue returns the index past the value that starts at s[i], in a
// valid document.
func endOfValue(s string, i int) int {
	switch s[i] {
	case '"':
		return endOfString(s, i)
	case '{', '[':
		for depth := 0; ; i++ {
			switch s[i] {
			case '"':
				i = endOfString(s, i) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
	}
	// A number or a literal runs to the next delimiter, which a value
	// inside an object always has.
	return i + strings.IndexAny(s[i:], ",}] \t\n\r")
}
