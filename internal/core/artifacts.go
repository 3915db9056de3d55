package core

import (
	"sort"
	"time"
)

// ArtifactConfig sizes a replica's warm-artifact cache. CapacityBytes 0
// takes the device spec's default; negative disables eviction (unbounded).
type ArtifactConfig struct {
	CapacityBytes int64
}

// artifactCache is the control layer's warm-artifact store: the set of
// compiled program binaries resident on this replica. The paper's ILM
// keeps JIT-compiled Wasm modules cached so repeat launches skip the
// upload + compile pipeline (Fig. 9); a production replica bounds that
// cache, so cold programs evict the least-recently-launched artifact.
type artifactCache struct {
	capacity int64 // bytes; <0 means unbounded
	used     int64
	entries  map[string]*artifactEntry // key: name@version
	seq      uint64                    // recency stamp source

	// Stats.
	hits, misses, evictions int
}

type artifactEntry struct {
	size int64
	last uint64 // recency stamp of the latest launch
}

func newArtifactCache(capacity int64) *artifactCache {
	return &artifactCache{capacity: capacity, entries: make(map[string]*artifactEntry)}
}

// has probes residency without touching recency (placement probes).
func (c *artifactCache) has(key string) bool {
	_, ok := c.entries[key]
	return ok
}

// admit records a launch of artifact key with the given binary size.
// paidCold says whether the launch actually paid the upload + JIT
// pipeline — the caller decided that before compiling, so concurrent
// launches racing a still-compiling artifact count as misses even
// though the first one's admit has landed by the time they arrive. A
// resident artifact refreshes recency; a missing one is admitted,
// evicting least-recently-launched artifacts until it fits; an artifact
// larger than the whole cache serves uncached (every launch of it stays
// cold).
func (c *artifactCache) admit(key string, size int64, paidCold bool) {
	c.seq++
	if paidCold {
		c.misses++
	} else {
		c.hits++
	}
	if e, ok := c.entries[key]; ok {
		e.last = c.seq
		return
	}
	if size < 0 {
		size = 0
	}
	if c.capacity >= 0 && size > c.capacity {
		return // uncacheable: exceeds the whole cache
	}
	for c.capacity >= 0 && c.used+size > c.capacity && len(c.entries) > 0 {
		c.evictLRU()
	}
	c.entries[key] = &artifactEntry{size: size, last: c.seq}
	c.used += size
}

// evictLRU drops the least-recently-launched artifact.
func (c *artifactCache) evictLRU() {
	var victim string
	var oldest uint64
	for key, e := range c.entries {
		if victim == "" || e.last < oldest || (e.last == oldest && key < victim) {
			victim, oldest = key, e.last
		}
	}
	c.used -= c.entries[victim].size
	delete(c.entries, victim)
	c.evictions++
}

// keys lists resident artifacts in sorted order (tests, listings).
func (c *artifactCache) keys() []string {
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ArtifactStats summarizes a replica's warm-artifact cache.
type ArtifactStats struct {
	Resident  int   // artifacts currently cached
	UsedBytes int64 // bytes of cached binaries
	Hits      int   // warm launches served from the cache
	Misses    int   // cold launches that paid upload + JIT
	Evictions int   // artifacts displaced by capacity pressure
}

// --- Controller surface -----------------------------------------------------

// HasArtifact reports whether the program artifact (name@version) is warm
// on this replica, without disturbing recency. The cluster's
// program-affinity placement probes replicas with it.
func (ctl *Controller) HasArtifact(key string) bool { return ctl.artifacts.has(key) }

// AdmitArtifact records a launch of the artifact on this replica. cold
// says whether the launch paid the upload + JIT pipeline (the caller
// checked HasArtifact before compiling and charged ArtifactCost).
func (ctl *Controller) AdmitArtifact(key string, size int, cold bool) {
	ctl.artifacts.admit(key, int64(size), cold)
}

// ArtifactCost prices the cold-launch deployment pipeline (upload + JIT)
// for a binary of the given size on this replica's device class.
func (ctl *Controller) ArtifactCost(binaryBytes int) time.Duration {
	return ctl.order[0].rt.Spec.ArtifactCost(binaryBytes)
}

// ArtifactStats snapshots the warm-artifact cache counters.
func (ctl *Controller) ArtifactStats() ArtifactStats {
	return ArtifactStats{
		Resident:  len(ctl.artifacts.entries),
		UsedBytes: ctl.artifacts.used,
		Hits:      ctl.artifacts.hits,
		Misses:    ctl.artifacts.misses,
		Evictions: ctl.artifacts.evictions,
	}
}

// Artifacts lists the warm artifact keys on this replica, sorted.
func (ctl *Controller) Artifacts() []string { return ctl.artifacts.keys() }
