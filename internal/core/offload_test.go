package core

import (
	"math/rand"
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
		if m.refs == 0 {
			continue // free
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
// operation. Deterministic: a failure reproduces from the logged seed.
func TestTieredPoolRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newTieredPool(8, 12, lruEvictor{})
		live := map[int32]int{} // id -> expected refs
		pinned := map[int32]int{}
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
					if _, dup := live[id]; dup {
						t.Fatalf("seed %d step %d: id %d handed out twice", seed, step, id)
					}
					live[id] = 1
				}
			case 1: // release one reference of a random live id
				for id := range live {
					freed := p.release(id)
					live[id]--
					if (live[id] == 0) != freed {
						t.Fatalf("seed %d step %d: release freed=%v with %d expected refs", seed, step, freed, live[id])
					}
					if live[id] == 0 {
						delete(live, id)
						delete(pinned, id)
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
			case 4: // pin/unpin
				for id := range live {
					if rng.Intn(2) == 0 {
						if _, ok := p.pin(id); ok {
							pinned[id]++
						}
					} else if pinned[id] > 0 {
						p.unpin(id, p.meta[id].gen)
						pinned[id]--
						if pinned[id] == 0 {
							delete(pinned, id)
						}
					}
					break
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
					p.unpin(id, p.meta[id].gen)
					pinned[id]--
					if pinned[id] <= 0 {
						delete(pinned, id)
					}
				}
			}
			checkTieredInvariants(t, p)
			for id, m := range p.meta {
				if live[int32(id)] != m.refs {
					t.Fatalf("seed %d step %d: id %d refs %d, expected %d", seed, step, id, m.refs, live[int32(id)])
				}
			}
		}
		// Drain: releasing every reference empties both tiers.
		for id, refs := range live {
			for i := 0; i < refs; i++ {
				p.release(id)
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
	gen0, _ := p.pin(ids[0])
	p.pin(ids[1])
	if _, _, ok := p.alloc(nil, 1, 0); ok {
		t.Fatal("alloc evicted a pinned page")
	}
	p.unpin(ids[0], gen0)
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
func pinSet(p *tieredPool, ids []int32) []pagePin {
	var pins []pagePin
	p.firstSight()
	for _, id := range ids {
		if p.mark(id) {
			pins = append(pins, pagePin{page: id})
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

// TestTieredPoolStaleUnpinIgnored: an id freed while pinned and then
// recycled must not have its new owner's pin disturbed by the stale
// unpin (the generation guard).
func TestTieredPoolStaleUnpinIgnored(t *testing.T) {
	p := newTieredPool(2, 2, lruEvictor{})
	a, _, _ := p.alloc(nil, 1, 0)
	staleGen, ok := p.pin(a[0])
	if !ok {
		t.Fatal("pin failed")
	}
	// The owner is terminated mid-flight: its ref is released while the
	// pin is still outstanding, and the id recycles to a new owner.
	if !p.release(a[0]) {
		t.Fatal("release did not free")
	}
	b, _, _ := p.alloc(nil, 1, 0)
	if b[0] != a[0] {
		t.Fatalf("expected id reuse, got %d then %d", a[0], b[0])
	}
	newGen, _ := p.pin(b[0])
	if newGen == staleGen {
		t.Fatal("recycled id kept its old generation")
	}
	p.unpin(a[0], staleGen) // the late unpin from the dead call
	if p.meta[b[0]].pins != 1 {
		t.Fatalf("stale unpin disturbed the new owner: pins = %d, want 1", p.meta[b[0]].pins)
	}
	// And the new owner stays offload-safe.
	if _, _, ok := p.alloc(nil, 2, 0); ok {
		t.Fatal("alloc evicted the still-pinned recycled page")
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
