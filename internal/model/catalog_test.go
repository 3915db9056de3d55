package model

import (
	"slices"
	"sync"
	"testing"
)

// TestCatalogsShareOneTokenizer builds two catalogs from concurrent
// goroutines and encodes with both: they hold the one process-wide
// tokenizer, and sharing it races on nothing (CI runs this under -race).
func TestCatalogsShareOneTokenizer(t *testing.T) {
	const text = `{"tool": "search", "args": {"query": "the weather in the city"}}`
	var (
		wg   sync.WaitGroup
		cats [2]*Catalog
		ids  [2][]int
	)
	for i := range cats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cats[i] = StandardCatalog(uint64(40 + i))
			ids[i] = cats[i].Models["llama-3b"].Tokenizer().Encode(text)
		}()
	}
	wg.Wait()
	if cats[0].Tokenizer != cats[1].Tokenizer {
		t.Fatal("two catalogs built two tokenizers")
	}
	if !slices.Equal(ids[0], ids[1]) || len(ids[0]) == 0 {
		t.Fatalf("the catalogs encode differently: %v and %v", ids[0], ids[1])
	}
	if got := cats[0].Tokenizer.Decode(ids[1]); got != text {
		t.Fatalf("round trip gave %q", got)
	}
}

var catalogSink *Catalog

// BenchmarkStandardCatalog is what every engine pays to build its models.
func BenchmarkStandardCatalog(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		catalogSink = StandardCatalog(uint64(i))
	}
}
