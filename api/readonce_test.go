package api

import (
	"errors"
	"testing"
)

// onceFuture is a completed future that fails a test read twice, as a
// runtime result does (its record may be serving another call by then).
type onceFuture struct {
	t     *testing.T
	done  bool
	val   int
	err   error
	reads int
}

func (f *onceFuture) Get() (int, error) {
	if f.reads++; f.reads > 1 {
		f.t.Errorf("future %d read %d times", f.val, f.reads)
	}
	return f.val, f.err
}

func (f *onceFuture) Done() bool { return f.done }

// TestCombinatorsReadEachFutureOnce: All, Any (its degraded path
// included), Then and Map read each future they wrap at most once, however
// often they are read themselves, and a second read gives the first's value.
func TestCombinatorsReadEachFutureOnce(t *testing.T) {
	done := func(v int) *onceFuture { return &onceFuture{t: t, done: true, val: v} }
	boom := errors.New("boom")
	for name, f := range map[string]Future[int]{
		"All":             Then(All[int](done(1), done(2)), func(v []int) (int, error) { return v[0] + v[1], nil }),
		"All, failed":     Then(All[int](&onceFuture{t: t, done: true, err: boom}, done(2)), func(v []int) (int, error) { return 0, nil }),
		"Any":             Any[int](&onceFuture{t: t, val: 9}, done(3)),
		"Any, degraded":   Any[int](&onceFuture{t: t, val: 4}, &onceFuture{t: t, val: 5}),
		"Then":            Then[int, int](done(6), func(v int) (int, error) { return v * 2, nil }),
		"Map":             Then(Map[int, int]([]Future[int]{done(7)}, func(v int) (int, error) { return v, nil }), func(v []int) (int, error) { return v[0], nil }),
		"Any of Then/All": Any[int](Then(All[int](done(8)), func(v []int) (int, error) { return v[0], nil })),
	} {
		v1, err1 := f.Get()
		v2, err2 := f.Get()
		if v1 != v2 || err1 != err2 {
			t.Errorf("%s: read %d, %v then %d, %v", name, v1, err1, v2, err2)
		}
	}
}
