package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestTieredPoolRandomOps drives seeded random alloc/release/retain/pin/
// unpin/touch/fault sequences and checks the pool (tieredPool.check) and
// every id's refs and pins after every operation. A page released while
// pinned stays held, out of the free list, until its last unpin.
func TestTieredPoolRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newTieredPool(8, 12, lruEvictor{})
		live := map[int32]int{} // id -> expected refs
		pinned := map[int32]int{}
		// pick draws an id of set over its ids in order, so one seed runs
		// one operation sequence.
		pick := func(set map[int32]int) (int32, bool) {
			ids := slices.Sorted(maps.Keys(set))
			if len(ids) == 0 {
				return 0, false
			}
			return ids[rng.Intn(len(ids))], true
		}
		for step := 0; step < 600; step++ {
			switch rng.Intn(7) {
			case 0: // alloc
				n := 1 + rng.Intn(4)
				wantOK := p.available() >= n
				ids, _, ok := p.alloc(nil, n, rng.Intn(3))
				// alloc may legitimately fail below capacity only when
				// pinned pages block device room.
				if ok != wantOK && len(pinned) == 0 {
					t.Fatalf("seed %d step %d: alloc(%d) ok=%v with %d available and nothing pinned",
						seed, step, n, ok, p.available())
				}
				for _, id := range ids { // a live or pinned id on the free list fails p.check
					live[id] = 1
				}
			case 1: // release one reference of a random live id
				if id, ok := pick(live); ok {
					freed := p.release(id)
					live[id]--
					if want := live[id] == 0 && pinned[id] == 0; freed != want {
						t.Fatalf("seed %d step %d: release freed=%v with %d refs and %d pins left", seed, step, freed, live[id], pinned[id])
					}
					if live[id] == 0 {
						delete(live, id)
					}
				}
			case 2: // double-free / unknown-free must report false
				if p.release(int32(10_000 + rng.Intn(100))) {
					t.Fatalf("seed %d step %d: released an unknown id", seed, step)
				}
			case 3: // retain (export/import sharing)
				if id, ok := pick(live); ok {
					p.retain(id)
					live[id]++
				}
			case 4: // pin a live id, or unpin a pinned one (held or live)
				if rng.Intn(2) == 0 {
					// As preparePages does: a pinned page is faulted in, or
					// let go at once when device room cannot be cleared.
					if id, ok := pick(live); ok && p.pin(id) {
						if _, _, ok := p.faultIn([]int32{id}); ok {
							pinned[id]++
						} else {
							p.unpin(id)
						}
					}
				} else if id, ok := pick(pinned); ok {
					p.unpin(id)
					if pinned[id]--; pinned[id] == 0 { // p.check fails a held page the last unpin left unfreed
						delete(pinned, id)
					}
				}
			case 5: // touch
				if id, ok := pick(live); ok {
					p.touch(id)
				}
			case 6: // fault a random subset back to device
				ids := slices.Sorted(maps.Keys(live))
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				ids = ids[:min(4, len(ids))]
				for _, id := range ids {
					p.pin(id)
					pinned[id]++
				}
				if _, _, ok := p.faultIn(pinSet(p, ids)); ok {
					for _, id := range ids {
						if m := p.live(id); m != nil && m.tier != tierDevice {
							t.Fatalf("seed %d step %d: faulted page %d not device-resident", seed, step, id)
						}
					}
				}
				for _, id := range ids {
					p.unpin(id)
					if pinned[id]--; pinned[id] == 0 {
						delete(pinned, id)
					}
				}
			}
			if err := p.check(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			for id, m := range p.meta {
				if live[int32(id)] != m.refs || pinned[int32(id)] != m.pins {
					t.Fatalf("seed %d step %d: id %d refs %d pins %d, expected %d and %d",
						seed, step, id, m.refs, m.pins, live[int32(id)], pinned[int32(id)])
				}
			}
		}
		// Drain: releasing every reference and pin empties both tiers.
		for id, refs := range live {
			for i := 0; i < refs; i++ {
				p.release(id)
			}
		}
		for id, pins := range pinned {
			for i := 0; i < pins; i++ {
				p.unpin(id)
			}
		}
		if err := p.check(); err != nil || p.inUse() != 0 {
			t.Fatalf("seed %d: pages lost after full drain: %+v: %v", seed, p.stats(), err)
		}
	}
}

// TestTieredPoolPinnedNeverEvicted pins the offload-safety contract: a
// pinned page is never chosen as an offload victim, even when that makes
// allocation fail below nominal capacity.
func TestTieredPoolPinnedNeverEvicted(t *testing.T) {
	p := newTieredPool(2, 4, lruEvictor{})
	ids, _, ok := p.alloc(nil, 2, 0)
	if !ok {
		t.Fatal("alloc failed")
	}
	p.pin(ids[0])
	p.pin(ids[1])
	if _, _, ok := p.alloc(nil, 1, 0); ok {
		t.Fatal("alloc evicted a pinned page")
	}
	p.unpin(ids[0])
	fresh, swapped, ok := p.alloc(nil, 1, 0)
	if !ok || swapped != 1 {
		t.Fatalf("alloc after unpin: ok=%v swapped=%d", ok, swapped)
	}
	if tier, _ := p.resident(ids[0]); tier != tierHost {
		t.Fatal("unpinned LRU page was not the victim")
	}
	if tier, _ := p.resident(ids[1]); tier != tierDevice {
		t.Fatal("pinned page was offloaded")
	}
	if tier, _ := p.resident(fresh[0]); tier != tierDevice {
		t.Fatal("fresh page not device-resident")
	}
}

// TestTieredPoolEvictionPolicies pins victim ordering: LRU offloads the
// coldest page; the priority policy offloads the lowest-priority queue's
// pages first and falls back to LRU within a class.
func TestTieredPoolEvictionPolicies(t *testing.T) {
	// LRU: oldest-touched page goes first.
	p := newTieredPool(3, 3, lruEvictor{})
	ids, _, _ := p.alloc(nil, 3, 0)
	p.touch(ids[0]) // ids[1] is now coldest
	if _, _, ok := p.alloc(nil, 1, 0); !ok {
		t.Fatal("alloc failed")
	}
	if tier, _ := p.resident(ids[1]); tier != tierHost {
		t.Fatalf("LRU did not evict the coldest page")
	}

	// Priority: a hot low-priority page loses to a cold high-priority one.
	q := newTieredPool(2, 2, priorityEvictor{})
	hi, _, _ := q.alloc(nil, 1, 5)
	lo, _, _ := q.alloc(nil, 1, 1)
	q.touch(lo[0]) // lo is hotter, but lower priority
	if _, _, ok := q.alloc(nil, 1, 3); !ok {
		t.Fatal("alloc failed")
	}
	if tier, _ := q.resident(lo[0]); tier != tierHost {
		t.Fatal("priority evictor did not prefer the low-priority page")
	}
	if tier, _ := q.resident(hi[0]); tier != tierDevice {
		t.Fatal("priority evictor offloaded the high-priority page")
	}
}

// pinSet builds a call's pin set the way resolvePages does: each live page
// once, in first-mention order.
func pinSet(p *tieredPool, ids []int32) []int32 {
	var pins []int32
	p.firstSight()
	for _, id := range ids {
		if p.mark(id) {
			pins = append(pins, id)
		}
	}
	return pins
}

// TestTieredPoolFaultInMakesRoom exercises fault-in under a full device
// tier: cold pages offload to admit the faulted set.
func TestTieredPoolFaultInMakesRoom(t *testing.T) {
	p := newTieredPool(2, 2, lruEvictor{})
	a, _, _ := p.alloc(nil, 2, 0)
	b, _, ok := p.alloc(nil, 2, 0) // offloads a[0], a[1]
	if !ok {
		t.Fatal("second alloc failed")
	}
	if in, out, ok := p.faultIn(pinSet(p, a)); !ok || in != 2 || out != 2 {
		t.Fatalf("faultIn = %d in, %d out, ok=%v; want 2, 2, true", in, out, ok)
	}
	for _, id := range a {
		if tier, _ := p.resident(id); tier != tierDevice {
			t.Fatalf("faulted page %d not device-resident", id)
		}
	}
	for _, id := range b {
		if tier, _ := p.resident(id); tier != tierHost {
			t.Fatalf("victim page %d not offloaded", id)
		}
	}
	if st, err := p.stats(), p.check(); st.SwapInPages != 2 || st.SwapOutPages != 4 || err != nil {
		t.Fatalf("swap counters = %d in, %d out; want 2 in, 4 out: %v", st.SwapInPages, st.SwapOutPages, err)
	}
}

// TestParseEviction covers the CLI surface.
func TestParseEviction(t *testing.T) {
	for in, want := range map[string]EvictionPolicy{
		"": EvictLRU, "lru": EvictLRU, "priority": EvictPriority, "pri": EvictPriority,
	} {
		got, err := ParseEviction(in)
		if err != nil || got != want {
			t.Fatalf("ParseEviction(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseEviction("bogus"); err == nil {
		t.Fatal("ParseEviction(bogus) succeeded")
	}
	if EvictLRU.String() != "lru" || EvictPriority.String() != "priority" {
		t.Fatal("EvictionPolicy names wrong")
	}
}

// TestTieredPoolFreesPinnedPageAtLastUnpin: a page whose last reference is
// released while calls still pin it (its owner died with a forward in
// flight) is not recycled: it keeps its device slot, is never an offload
// victim, and returns to the free list at its last unpin.
func TestTieredPoolFreesPinnedPageAtLastUnpin(t *testing.T) {
	p := newTieredPool(2, 2, lruEvictor{})
	a, _, _ := p.alloc(nil, 1, 0)
	p.pin(a[0])
	p.pin(a[0])
	if p.release(a[0]) {
		t.Fatal("release freed a pinned page")
	}
	if p.live(a[0]) != nil || p.pin(a[0]) || p.check() != nil { // check: the held page stays counted
		t.Fatalf("a released page still takes pins, or the held page went uncounted: %v", p.check())
	}
	b, _, _ := p.alloc(nil, 1, 0)
	if b[0] == a[0] {
		t.Fatal("alloc recycled a page a kernel still pins")
	}
	// The device tier is full: the next alloc must offload b, never a.
	if _, swapped, ok := p.alloc(nil, 1, 0); !ok || swapped != 1 {
		t.Fatalf("alloc beside a held page: ok=%v swapped=%d", ok, swapped)
	}
	if tier, _ := p.resident(b[0]); tier != tierHost || p.meta[a[0]].tier != tierDevice || p.check() != nil {
		t.Fatalf("the held page was offloaded instead of the cold one: %v", p.check())
	}
	p.unpin(a[0])
	if slices.Contains(p.free, a[0]) {
		t.Fatal("freed before its last unpin")
	}
	p.unpin(a[0])
	if !slices.Contains(p.free, a[0]) || p.inUse() != 2 || p.check() != nil {
		t.Fatalf("last unpin did not free the page: free %v, inUse %d: %v", p.free, p.inUse(), p.check())
	}
	if c, _, _ := p.alloc(nil, 1, 0); c[0] != a[0] {
		t.Fatalf("freed id %d not reused, got %d", a[0], c[0])
	}
}

// TestTieredPoolFaultInDuplicatesCountOnce: a call naming the same page
// in both its read and append sets (the standard decode shape) must
// fault, evict, and bill it once.
func TestTieredPoolFaultInDuplicatesCountOnce(t *testing.T) {
	p := newTieredPool(2, 2, lruEvictor{})
	a, _, _ := p.alloc(nil, 2, 0)
	if _, _, ok := p.alloc(nil, 2, 0); !ok { // offloads both of a
		t.Fatal("second alloc failed")
	}
	dup := []int32{a[0], a[1], a[0], a[1]} // ReadKv + AppendKv mention
	pins := pinSet(p, dup)
	if len(pins) != 2 {
		t.Fatalf("pin set of %v has %d entries, want 2", dup, len(pins))
	}
	in, out, ok := p.faultIn(pins)
	if !ok {
		t.Fatal("faultIn of a feasible duplicate set failed")
	}
	if err := p.check(); in != 2 || out != 2 || err != nil {
		t.Fatalf("faultIn = %d in, %d out; duplicates double-counted (want 2, 2): %v", in, out, err)
	}
}
