// White-box tests of kv-affinity placement's key reader and of what a keyed
// placement and a transfer slot allocate: scanHints against the
// encoding/json decode it stands in for, hashStick's hash against hash/fnv,
// and the allocation budget of a keyed launch on a 6-replica P/D cluster.
package cluster

import (
	"encoding/json"
	"hash/fnv"
	"slices"
	"testing"
)

// affinityHintsJSON is the key reader as encoding/json decodes the blob,
// the oracle affinityHints must agree with on every blob.
func affinityHintsJSON(args []string) []string {
	if len(args) == 0 || args[0] == "" {
		return nil
	}
	var params struct {
		Affinity string `json:"affinity"`
		CacheKey string `json:"cache_key"`
	}
	if err := json.Unmarshal([]byte(args[0]), &params); err != nil {
		return nil
	}
	var hints []string
	if params.Affinity != "" {
		hints = append(hints, params.Affinity)
	}
	if params.CacheKey != "" {
		hints = append(hints, params.CacheKey)
	}
	return hints
}

// The launch blobs of fleet_mixed's two classes: an interactive session
// carries a shared prefix and the cache key it is exported under, a batch
// session neither.
const (
	keyedBlob   = `{"sid":17,"prompt":"the quick brown fox jumps over","max_tokens":32,"prefix":"You are a helpful assistant. Answer briefly.","cache_key":"sys-prefix:3"}`
	unkeyedBlob = `{"sid":18,"prompt":"a longer batch prompt of many words","max_tokens":128}`
)

// hintSeeds are blobs on both sides of scanHints' line, each paired with
// whether the fast path takes it.
var hintSeeds = []struct {
	blob string
	fast bool
}{
	{keyedBlob, true},
	{unkeyedBlob, true},
	{`{"affinity":"a","cache_key":"k"}`, true},
	{`{"Cache_Key":"k","AFFINITY":"a"}`, true},
	{`{"\u0063ache_key":"k"}`, false},
	{`{"cache_key":"k\n2"}`, false},
	{`{"cache_key":"a","cache_key":"b"}`, true},
	{`{"cache_key":"a","cache_key":""}`, true},
	{`{"cache_key":null}`, false},
	{`{"cache_key":"a","affinity":null}`, false},
	{`{"cache_key":7}`, false},
	{`{"affinity":"a","cache_key":7}`, false},
	{`{"inner":{"cache_key":"k"},"n":[1,-2.5e3,true,false,null,"xé"]}`, true},
	{`{"prompt":"café é","cache_key":"k"}`, true},
	{`{"prompt":"say \"hi\", \\","cache_key":"k","q":["\"]"]}`, true},
	{`{"cache_key":"é"}`, false},
	{`["cache_key","k"]`, false},
	{`"cache_key"`, false},
	{`null`, false},
	{`{}`, true},
	{` { "cache_key" : "k" } `, true},
	{`{"cache_key":"k"`, false},
	{`{"cache_key":"k",}`, false},
	{`{"cache_key":"k"} x`, false},
	{`{"cache_key":"k"}{}`, false},
	{`{"n":01,"cache_key":"k"}`, false},
	{`{"n":[1,],"cache_key":"k"}`, false},
	{`{"s":"\x","cache_key":"k"}`, false},
}

func hintList(args []string) []string {
	hints, n := affinityHints(args)
	return hints[:n]
}

// TestAffinityHintsMatchDecode: on every seed blob the reader returns what
// encoding/json decodes, and the fast path takes exactly the blobs it
// should: fleet_mixed's both, and none with an escaped or non-ASCII key or
// key value, a null or non-string key value, or a syntax error.
func TestAffinityHintsMatchDecode(t *testing.T) {
	for _, s := range hintSeeds {
		args := []string{s.blob}
		if got, want := hintList(args), affinityHintsJSON(args); !slices.Equal(got, want) {
			t.Errorf("%s: hints %q, encoding/json %q", s.blob, got, want)
		}
		if _, ok := scanHints(s.blob); ok != s.fast {
			t.Errorf("%s: fast path took it %v, want %v", s.blob, ok, s.fast)
		}
	}
	for _, args := range [][]string{nil, {""}} {
		if got := hintList(args); len(got) != 0 {
			t.Errorf("args %q: hints %q, want none", args, got)
		}
	}
}

// FuzzAffinityHints checks the reader against encoding/json on any blob.
func FuzzAffinityHints(f *testing.F) {
	for _, s := range hintSeeds {
		f.Add(s.blob)
	}
	f.Fuzz(func(t *testing.T, blob string) {
		args := []string{blob}
		if got, want := hintList(args), affinityHintsJSON(args); !slices.Equal(got, want) {
			t.Fatalf("%q: hints %q, encoding/json %q", blob, got, want)
		}
	})
}

// TestHashStickIsFNV1a: the inline hash is hash/fnv's 64-bit FNV-1a, so
// every key sticks where it did.
func TestHashStickIsFNV1a(t *testing.T) {
	c := pdCluster()
	c.stick = c.replicas // every replica serves in pdCluster
	for _, key := range []string{"", "a", "sys-prefix:3", "bench_chat@1", "drain-key-17"} {
		h := fnv.New64a()
		h.Write([]byte(key))
		if got, want := c.hashStick(key, c.replicas), c.replicas[h.Sum64()%uint64(len(c.replicas))]; got != want {
			t.Errorf("key %q sticks to replica %d, FNV-1a says %d", key, got.ID, want.ID)
		}
	}
}

// keyedCluster is pdCluster placing by kv-affinity. No replica holds an
// export, so a keyed launch hash-sticks to a prefill replica after the
// holders' scan.
func keyedCluster() *Cluster {
	c := pdCluster()
	c.policy = PlaceKVAffinity
	return c
}

// TestPlacementAllocatesNothing: reading the hints of fleet_mixed's keyed
// and unkeyed blobs, placing a keyed launch by kv-affinity, and taking and
// releasing a transfer slot allocate nothing; a slot released twice goes
// back to the budget once.
func TestPlacementAllocatesNothing(t *testing.T) {
	for _, blob := range []string{keyedBlob, unkeyedBlob} {
		args := []string{blob}
		if n := testing.AllocsPerRun(100, func() { affinityHints(args) }); n != 0 {
			t.Errorf("affinityHints(%s) allocated %v times, want 0", blob, n)
		}
	}
	c := keyedCluster()
	args := []string{keyedBlob}
	if ctl, err := c.Place("bench_chat", "bench_chat@1", args, 1); err != nil || c.ctlIndex[ctl].Role != RolePrefill {
		t.Fatalf("keyed placement: %v; want a prefill replica", err)
	}
	if n := testing.AllocsPerRun(100, func() { c.Place("bench_chat", "bench_chat@1", args, 1) }); n != 0 {
		t.Errorf("a keyed placement allocated %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		slot := c.acquireTransferSlot()
		defer slot.release()
		slot.release() // a second release gives nothing back
	}); n != 0 {
		t.Errorf("a transfer slot allocated %v times, want 0", n)
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPlaceKeyed is one kv-affinity placement of fleet_mixed's keyed
// blob on the 6-replica P/D cluster: the key read, the holders' scan and
// the hash-stick.
func BenchmarkPlaceKeyed(b *testing.B) {
	c := keyedCluster()
	args := []string{keyedBlob}
	b.ReportAllocs()
	for b.Loop() {
		c.Place("bench_chat", "bench_chat@1", args, 1)
	}
}
