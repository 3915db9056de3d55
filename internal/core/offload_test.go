package core

import (
	"math/rand"
	"slices"
	"testing"
)

// checkTieredInvariants asserts the structural invariants every operation
// must preserve: tier counts sum to the pool total, neither tier exceeds
// its capacity, the meta table matches the counters, and no live id is
// also on the free list.
func checkTieredInvariants(t *testing.T, p *tieredPool) {
	t.Helper()
	if int(p.next) != len(p.meta) {
		t.Fatalf("meta table has %d rows for %d materialized ids", len(p.meta), p.next)
	}
	if p.devInUse > p.devCap {
		t.Fatalf("device tier overcommitted: %d > %d", p.devInUse, p.devCap)
	}
	if p.hostInUse > p.hostCap {
		t.Fatalf("host tier overcommitted: %d > %d", p.hostInUse, p.hostCap)
	}
	dev, host := 0, 0
	for id, m := range p.meta {
		if m.refs < 0 {
			t.Fatalf("page %d has refs %d", id, m.refs)
		}
		if m.refs == 0 && m.pins == 0 {
			continue // free; a page with pins but no refs is held for its kernels
		}
		if m.tier == tierDevice {
			dev++
		} else {
			host++
		}
	}
	if dev != p.devInUse || host != p.hostInUse {
		t.Fatalf("meta tiers %d/%d disagree with counters %d/%d", dev, host, p.devInUse, p.hostInUse)
	}
	for _, id := range p.free {
		if p.live(id) != nil {
			t.Fatalf("page %d is live and on the free list", id)
		}
	}
	if p.inUse()+p.available() != p.capacity() {
		t.Fatalf("inUse %d + available %d != capacity %d", p.inUse(), p.available(), p.capacity())
	}
}

// TestTieredPoolRandomOps drives seeded random alloc/release/retain/pin/
// unpin/touch/fault sequences and asserts the invariants after every
// operation. A page released while pinned stays held, out of the free list,
// until its last unpin.
func TestTieredPoolRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newTieredPool(8, 12, lruEvictor{})
		live := map[int32]int{} // id -> expected refs
		pinned := map[int32]int{}
		isFree := func(id int32) bool { return slices.Contains(p.free, id) }
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
				for _, id := range ids {
					if _, dup := live[id]; dup || pinned[id] > 0 {
						t.Fatalf("seed %d step %d: id %d handed out while live or pinned", seed, step, id)
					}
					live[id] = 1
				}
			case 1: // release one reference of a random live id
				for id := range live {
					freed := p.release(id)
					live[id]--
					if want := live[id] == 0 && pinned[id] == 0; freed != want {
						t.Fatalf("seed %d step %d: release freed=%v with %d refs and %d pins left", seed, step, freed, live[id], pinned[id])
					}
					if live[id] == 0 {
						delete(live, id)
					}
					break
				}
			case 2: // double-free / unknown-free must report false
				if p.release(int32(10_000 + rng.Intn(100))) {
					t.Fatalf("seed %d step %d: released an unknown id", seed, step)
				}
			case 3: // retain (export/import sharing)
				for id := range live {
					p.retain(id)
					live[id]++
					break
				}
			case 4: // pin a live id, or unpin a pinned one (held or live)
				if rng.Intn(2) == 0 {
					for id := range live {
						if p.pin(id) {
							pinned[id]++
						}
						break
					}
				} else {
					for id := range pinned {
						p.unpin(id)
						if pinned[id]--; pinned[id] == 0 {
							delete(pinned, id)
							if _, ok := live[id]; !ok && !isFree(id) {
								t.Fatalf("seed %d step %d: held page %d not freed at its last unpin", seed, step, id)
							}
						}
						break
					}
				}
			case 5: // touch
				for id := range live {
					p.touch(id)
					break
				}
			case 6: // fault a random subset back to device
				ids := make([]int32, 0, 4)
				for id := range live {
					ids = append(ids, id)
					if len(ids) == cap(ids) {
						break
					}
				}
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
			checkTieredInvariants(t, p)
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
		if p.inUse() != 0 || p.devInUse != 0 || p.hostInUse != 0 {
			t.Fatalf("seed %d: pages lost after full drain: %+v", seed, p.stats())
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
	st := p.stats()
	if st.SwapInPages != 2 || st.SwapOutPages != 4 {
		t.Fatalf("swap counters = %d in, %d out; want 2 in, 4 out", st.SwapInPages, st.SwapOutPages)
	}
	checkTieredInvariants(t, p)
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
	if p.live(a[0]) != nil || p.pin(a[0]) {
		t.Fatal("a released page still takes pins")
	}
	if p.inUse() != 1 {
		t.Fatalf("held page not counted: inUse %d, want 1", p.inUse())
	}
	b, _, _ := p.alloc(nil, 1, 0)
	if b[0] == a[0] {
		t.Fatal("alloc recycled a page a kernel still pins")
	}
	// The device tier is full: the next alloc must offload b, never a.
	if _, swapped, ok := p.alloc(nil, 1, 0); !ok || swapped != 1 {
		t.Fatalf("alloc beside a held page: ok=%v swapped=%d", ok, swapped)
	}
	if tier, _ := p.resident(b[0]); tier != tierHost || p.meta[a[0]].tier != tierDevice {
		t.Fatal("the held page was offloaded instead of the cold one")
	}
	checkTieredInvariants(t, p)
	p.unpin(a[0])
	if slices.Contains(p.free, a[0]) {
		t.Fatal("freed before its last unpin")
	}
	p.unpin(a[0])
	if !slices.Contains(p.free, a[0]) || p.inUse() != 2 {
		t.Fatalf("last unpin did not free the page: free %v, inUse %d", p.free, p.inUse())
	}
	checkTieredInvariants(t, p)
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
	if in != 2 || out != 2 {
		t.Fatalf("faultIn = %d in, %d out; duplicates double-counted (want 2, 2)", in, out)
	}
	checkTieredInvariants(t, p)
}
