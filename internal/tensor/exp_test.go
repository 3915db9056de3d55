package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// naiveSoftmax and naiveSiLU are the scalar loops Softmax and SiLU were
// before the vector kernels: the oracles for both paths.
func naiveSoftmax(x []float32) {
	if len(x) == 0 {
		return
	}
	mx := x[0]
	for _, v := range x[1:] {
		if v > mx {
			mx = v
		}
	}
	var sum float32
	for i, v := range x {
		e := float32(math.Exp(float64(v - mx)))
		x[i] = e
		sum += e
	}
	if sum == 0 {
		return
	}
	for i := range x {
		x[i] /= sum
	}
}

func naiveSiLU(x []float32) {
	for i, v := range x {
		x[i] = v / (1 + float32(math.Exp(float64(-v))))
	}
}

// expLo and expHi are the range exp_amd64.s computes in lanes: exp of
// anything outside it, or of NaN, goes to math.Exp.
const expLo, expHi = -87.33, 88.72

// exp32 is the scalar loop's exp.
func exp32(x float32) float32 { return float32(math.Exp(float64(x))) }

// vouched reports whether the vector kernel computes exp(x) in a lane
// itself, and what it gives: x goes in beside three zeros, which it always
// takes.
func vouched(x float32) (float32, bool) {
	g := [4]float32{x}
	return g[0], expShiftVec(g[:], 0) == len(g)
}

// lastInside is the float32 nearest the bound lim, inside [expLo, expHi].
func lastInside(lim float64) float32 {
	f := float32(lim)
	if float64(f) > expHi {
		f = math.Nextafter32(f, 0)
	}
	if float64(f) < expLo {
		f = math.Nextafter32(f, 0)
	}
	return f
}

// TestExpKernelExhaustive checks the vector exp against math.Exp's float32
// on every float32 in [expLo, expHi], some 2.2 billion inputs, split across
// GOMAXPROCS goroutines. Every lane the kernel vouches for must be exact;
// the share it leaves to math.Exp is logged with the sweep's time.
func TestExpKernelExhaustive(t *testing.T) {
	if !vector {
		t.Skip("no vector kernel in this build")
	}
	if testing.Short() {
		t.Skip("sweeps every float32 in the kernel's range")
	}
	const chunk = 1 << 16
	pos := math.Float32bits(lastInside(expHi))              // bits 0..pos: +0 up to the top edge
	neg := math.Float32bits(lastInside(expLo)) &^ (1 << 31) // -0 down to the bottom edge
	total := uint64(pos) + 1 + uint64(neg) + 1
	chunks := (total + chunk - 1) / chunk
	var next, flagged, bad atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, out := make([]float32, chunk), make([]float32, chunk)
			for c := next.Add(1) - 1; c < chunks; c = next.Add(1) - 1 {
				for j := range in {
					in[j] = 0 // past the end: exp(0), checked again
					if i := c*chunk + uint64(j); i <= uint64(pos) {
						in[j] = math.Float32frombits(uint32(i))
					} else if i -= uint64(pos) + 1; i <= uint64(neg) {
						in[j] = math.Float32frombits(uint32(i) | 1<<31)
					}
				}
				copy(out, in)
				for i := 0; i < len(out); {
					n := expShiftVec(out[i:], 0)
					for j := i; j < i+n; j++ {
						if got, want := out[j], exp32(in[j]); math.Float32bits(got) != math.Float32bits(want) && bad.Add(1) <= 10 {
							t.Errorf("exp(%g = %#x): lanes %#x, math.Exp %#x", in[j], math.Float32bits(in[j]), math.Float32bits(got), math.Float32bits(want))
						}
					}
					if i += n; i == len(out) {
						break
					}
					// A group the kernel gave back: try its lanes one at a time.
					for j := i; j < i+4; j++ {
						got, ok := vouched(in[j])
						if !ok {
							flagged.Add(1)
						} else if want := exp32(in[j]); math.Float32bits(got) != math.Float32bits(want) && bad.Add(1) <= 10 {
							t.Errorf("exp(%g = %#x): lane %#x, math.Exp %#x", in[j], math.Float32bits(in[j]), math.Float32bits(got), math.Float32bits(want))
						}
					}
					i += 4
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d float32s in %v on %d goroutines: %d left to math.Exp (1 in %.0f), %d wrong",
		total, time.Since(start).Round(time.Millisecond), runtime.GOMAXPROCS(0), flagged.Load(), float64(total)/float64(max(flagged.Load(), 1)), bad.Load())
}

// TestExpKernelEdges checks the inputs at and past the kernel's range, the
// zeros, and inputs it must leave to math.Exp, through the kernel and
// through expShift, the path Softmax takes.
func TestExpKernelEdges(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	top, bottom := lastInside(expHi), lastInside(expLo)
	inside := []float32{0, float32(math.Copysign(0, -1)), top, bottom, 1e-30, -1e-30, math.SmallestNonzeroFloat32, 1, -1}
	outside := []float32{
		math.Nextafter32(top, inf), math.Nextafter32(bottom, -inf), // one step past each edge
		-88, -100, -104, -150, 89, 100, // a result below 2^-126 (subnormal or zero) or above MaxFloat32
		inf, -inf, nan, math.MaxFloat32, -math.MaxFloat32,
	}
	eachKernel(t, func(t *testing.T) {
		for _, x := range append(append([]float32(nil), inside...), outside...) {
			got := []float32{x}
			expShift(got, 0)
			if want := exp32(x); math.Float32bits(got[0]) != math.Float32bits(want) {
				t.Errorf("expShift(%g): %#x, math.Exp %#x", x, math.Float32bits(got[0]), math.Float32bits(want))
			}
		}
	})
	if !vector {
		return
	}
	for _, x := range inside {
		if got, ok := vouched(x); !ok || got != exp32(x) {
			t.Errorf("exp(%g): the kernel gave %g (vouched %v), want %g in a lane", x, got, ok, exp32(x))
		}
	}
	for _, x := range outside {
		if _, ok := vouched(x); ok {
			t.Errorf("exp(%g): the kernel computed a lane it must leave to math.Exp", x)
		}
	}
}

// flaggedInputs returns n values in [-10, 0] whose exp lies so near a
// float32 rounding boundary that the kernel leaves them to math.Exp, or
// none where there is no kernel.
func flaggedInputs(r *rand.Rand, n int) []float32 {
	var out []float32
	for vector && len(out) < n {
		x := -10 * r.Float32()
		if _, ok := vouched(x); !ok {
			out = append(out, x)
		}
	}
	return out
}

// Softmax and SiLU against their scalar loops at every length up to 70 and
// the vocabulary's 1137: every whole group, every tail, inputs spread far
// enough to leave the kernel's range, and inputs it leaves to math.Exp. Each
// buffer is cut from NaN-poisoned memory, so a read or write past either
// end shows.
func TestSoftmaxSiLUMatchScalar(t *testing.T) {
	lengths := []int{1137}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	const pad = 16
	nan := float32(math.NaN())
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(8))
		flagged := flaggedInputs(r, 8)
		check := func(what string, in []float32, kernel, oracle func([]float32)) {
			t.Helper()
			buf := make([]float32, len(in)+2*pad)
			for i := range buf {
				buf[i] = nan
			}
			x := buf[pad : pad+len(in) : pad+len(in)]
			copy(x, in)
			kernel(x)
			want := append([]float32(nil), in...)
			oracle(want)
			sameBits(t, what, x, want)
			for i, v := range buf {
				if (i < pad || i >= pad+len(in)) && math.Float32bits(v) != math.Float32bits(nan) {
					t.Fatalf("%s over %d: element %d of the surrounding memory became %v", what, len(in), i-pad, v)
				}
			}
		}
		for _, n := range lengths {
			for _, scale := range []float32{1, 40} { // 40: past expLo after the max is subtracted
				in := randVec(r, n)
				for i := range in {
					in[i] *= scale
				}
				if n > 0 && len(flagged) > 0 {
					// A flagged exponent at a random place, under a max of 0.
					sm := append([]float32(nil), in...)
					for i := range sm {
						sm[i] = -float32(math.Abs(float64(sm[i])))
					}
					sm[r.Intn(n)] = 0
					sm[r.Intn(n)] = flagged[r.Intn(len(flagged))]
					check("Softmax (flagged)", sm, Softmax, naiveSoftmax)
					si := append([]float32(nil), in...)
					si[r.Intn(n)] = -flagged[r.Intn(len(flagged))]
					check("SiLU (flagged)", si, SiLU, naiveSiLU)
				}
				check("Softmax", in, Softmax, naiveSoftmax)
				check("SiLU", in, SiLU, naiveSiLU)
			}
		}
	})
}
