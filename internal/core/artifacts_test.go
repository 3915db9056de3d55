package core

import (
	"maps"
	"reflect"
	"slices"
	"testing"
)

// launch emulates the ILM's sequence: probe residency, then admit with
// the cold verdict. Returns whether the launch was cold.
func launch(c *artifactCache, key string, size int64) bool {
	cold := !c.has(key)
	c.admit(key, size, cold)
	return cold
}

// The warm-artifact cache is the replica-side half of the program
// deployment API: first launch admits (cold), repeats hit (warm), and
// capacity pressure evicts the least-recently-launched artifact.
func TestArtifactCacheAdmitAndLRU(t *testing.T) {
	c := newArtifactCache(100)

	if !launch(c, "a@1.0.0", 40) {
		t.Fatal("first launch of a must be cold")
	}
	if launch(c, "a@1.0.0", 40) {
		t.Fatal("second launch of a must be warm")
	}
	if !launch(c, "b@1.0.0", 40) || !c.has("a@1.0.0") || !c.has("b@1.0.0") {
		t.Fatal("a and b should coexist under capacity")
	}

	// Touch a so b becomes the LRU victim, then admit c over capacity.
	launch(c, "a@1.0.0", 40)
	if !launch(c, "c@1.0.0", 40) {
		t.Fatal("first launch of c must be cold")
	}
	if c.has("b@1.0.0") {
		t.Fatal("b should have been evicted (least recently launched)")
	}
	if got := slices.Sorted(maps.Keys(c.entries)); !reflect.DeepEqual(got, []string{"a@1.0.0", "c@1.0.0"}) {
		t.Fatalf("resident artifacts = %v", got)
	}
	if c.used != 80 {
		t.Fatalf("used = %d, want 80", c.used)
	}
	if c.evictions != 1 || c.hits != 2 || c.misses != 3 {
		t.Fatalf("stats = evictions %d hits %d misses %d", c.evictions, c.hits, c.misses)
	}

	// A re-launch of the evicted artifact is cold again.
	if !launch(c, "b@1.0.0", 40) {
		t.Fatal("relaunch of evicted b must be cold")
	}
}

// A launch that raced a still-compiling artifact paid the full pipeline
// even though the admit landed first: the caller's cold verdict drives
// the hit/miss stats, not residency at admit time.
func TestArtifactCacheConcurrentColdCountsAsMiss(t *testing.T) {
	c := newArtifactCache(100)
	// Both launches probed before either compile finished.
	cold1, cold2 := !c.has("x@1.0.0"), !c.has("x@1.0.0")
	c.admit("x@1.0.0", 10, cold1)
	c.admit("x@1.0.0", 10, cold2)
	if c.misses != 2 || c.hits != 0 {
		t.Fatalf("misses=%d hits=%d, want 2/0 (both paid the JIT)", c.misses, c.hits)
	}
	if !c.has("x@1.0.0") {
		t.Fatal("artifact must be resident after the race settles")
	}
}

func TestArtifactCacheOversizeAndUnbounded(t *testing.T) {
	c := newArtifactCache(100)
	launch(c, "small@1.0.0", 10)
	// An artifact larger than the whole cache serves uncached: every
	// launch stays cold and nothing resident is displaced for it.
	if !launch(c, "huge@1.0.0", 500) || !launch(c, "huge@1.0.0", 500) {
		t.Fatal("oversized artifact must stay cold on every launch")
	}
	if !c.has("small@1.0.0") || c.has("huge@1.0.0") {
		t.Fatal("oversized artifact must not displace resident entries")
	}

	// Negative capacity disables eviction entirely.
	u := newArtifactCache(-1)
	for i := 0; i < 8; i++ {
		launch(u, string(rune('a'+i))+"@1.0.0", 1<<30)
	}
	if len(u.entries) != 8 || u.evictions != 0 {
		t.Fatalf("unbounded cache evicted: %d entries, %d evictions", len(u.entries), u.evictions)
	}
}
