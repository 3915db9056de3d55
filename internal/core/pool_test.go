package core

import (
	"testing"
	"testing/quick"
)

func TestPoolAllocRelease(t *testing.T) {
	p := newPool(4)
	ids, ok := p.alloc(nil, 3)
	if !ok || len(ids) != 3 {
		t.Fatalf("alloc(3) = %v, %v", ids, ok)
	}
	if p.available() != 1 {
		t.Fatalf("available = %d, want 1", p.available())
	}
	if _, ok := p.alloc(nil, 2); ok {
		t.Fatal("overallocation succeeded")
	}
	if !p.release(ids[0]) {
		t.Fatal("release did not free")
	}
	if p.available() != 2 {
		t.Fatalf("available = %d, want 2", p.available())
	}
	// Freed ids are reused.
	again, ok := p.alloc(nil, 2)
	if !ok {
		t.Fatal("alloc after release failed")
	}
	seen := false
	for _, id := range again {
		if id == ids[0] {
			seen = true
		}
	}
	if !seen {
		t.Fatal("freed id was not reused")
	}
}

func TestPoolRefcounting(t *testing.T) {
	p := newPool(2)
	ids, _ := p.alloc(nil, 1)
	p.retain(ids[0])
	if freed := p.release(ids[0]); freed {
		t.Fatal("released with outstanding reference")
	}
	if freed := p.release(ids[0]); !freed {
		t.Fatal("final release did not free")
	}
	if p.release(ids[0]) {
		t.Fatal("double release freed again")
	}
}

func TestPoolInUse(t *testing.T) {
	p := newPool(10)
	p.alloc(nil, 4)
	if p.inUse() != 4 {
		t.Fatalf("inUse = %d, want 4", p.inUse())
	}
}

// Property: any interleaving of alloc/release keeps available+inUse equal
// to capacity and never double-hands-out an id.
func TestQuickPoolInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		p := newPool(16)
		live := map[int32]bool{}
		for _, op := range ops {
			if op%2 == 0 {
				n := int(op/2)%4 + 1
				ids, ok := p.alloc(nil, n)
				if ok {
					for _, id := range ids {
						if live[id] {
							return false // double allocation
						}
						live[id] = true
					}
				}
			} else {
				for id := range live {
					p.release(id)
					delete(live, id)
					break
				}
			}
			if p.available()+p.inUse() != 16 {
				return false
			}
			if p.inUse() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortQueuesPriorityThenID(t *testing.T) {
	qs := []*cmdQueue{
		{id: 3, priority: 0},
		{id: 1, priority: 5},
		{id: 2, priority: 5},
		{id: 4, priority: -1},
	}
	sortQueues(qs)
	wantIDs := []int{1, 2, 3, 4}
	for i, q := range qs {
		if int(q.id) != wantIDs[i] {
			t.Fatalf("order = %v, want ids %v", qs, wantIDs)
		}
	}
}
