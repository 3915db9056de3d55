package sim

import (
	"errors"
	"testing"
	"time"

	"pie/api"
)

// rec is a pooled record with an int result.
type rec struct {
	res  Cell
	val  int
	pool *[]*rec
}

func (r *rec) Recycle() {
	r.res.Reset()
	r.val = 0
	*r.pool = append(*r.pool, r)
}

// issue takes a record from pool (or makes one), hands out its result and
// completes it with v after d, as a call's completing party does.
func issue(c *Clock, pool *[]*rec, v int, d time.Duration) Result[int] {
	var r *rec
	if n := len(*pool); n > 0 {
		r, *pool = (*pool)[n-1], (*pool)[:n-1]
	} else {
		r = &rec{pool: pool}
		r.res.Init(c, r)
	}
	res := Hold(&r.res, &r.val)
	c.After(d, func() {
		r.val = v
		r.res.Resolve()
		r.res.Release()
	})
	return res
}

// TestResultReadOnce: a result's record is recycled once both holders let
// go, whichever goes last. A second Get of a result whose record has since
// served another call fails with api.ErrResultRead instead of reading that
// call's value, and the result stays done. A reader killed while parked
// lets go too; a result nobody reads keeps its record off the pool.
func TestResultReadOnce(t *testing.T) {
	c := NewClock()
	var pool []*rec
	var killed *Proc
	c.Go("reader", func() {
		first := issue(c, &pool, 1, time.Millisecond)
		if v, err := first.Get(); v != 1 || err != nil || len(pool) != 1 {
			t.Fatalf("first Get = %d, %v with %d pooled; want 1, nil, 1", v, err, len(pool))
		}
		second := issue(c, &pool, 2, 0)
		c.Sleep(time.Millisecond) // completes before it is read
		if v, err := second.Get(); v != 2 || err != nil || len(pool) != 1 {
			t.Fatalf("second Get = %d, %v with %d pooled; want 2, nil, 1", v, err, len(pool))
		}
		third := issue(c, &pool, 3, time.Millisecond) // the same record again
		if v, err := first.Get(); !errors.Is(err, api.ErrResultRead) || v != 0 || !first.Done() {
			t.Fatalf("first read again = %d, %v, done %v; want 0, api.ErrResultRead, done", v, err, first.Done())
		}
		if v, _ := third.Get(); v != 3 {
			t.Fatalf("third Get = %d, want 3", v)
		}
		killed = c.Go("killed", func() {
			issue(c, &pool, 4, time.Millisecond).Get()
			t.Error("a killed reader returned")
		})
		c.Yield()
		c.Kill(killed)
		c.Sleep(2 * time.Millisecond)
		if len(pool) != 1 {
			t.Fatalf("after a reader killed while parked, %d records pooled, want 1", len(pool))
		}
		unread := issue(c, &pool, 5, 0)
		c.Sleep(time.Millisecond)
		if !unread.Done() || len(pool) != 0 {
			t.Fatalf("unread result: done %v, %d records pooled; want done, 0", unread.Done(), len(pool))
		}
		if v, err := Ready(6).Get(); v != 6 || err != nil {
			t.Fatalf("ready value = %d, %v", v, err)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range pool {
		if !r.res.Blank() {
			t.Errorf("pooled record not blank: %+v", r.res)
		}
	}
}
