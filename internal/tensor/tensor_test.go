package tensor

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The oracles below are the kernels this package shipped before it was
// blocked: one accumulator, one Pow and Sincos per rotated pair, a
// reflection sort of every index. Every test demands == against them.

func naiveMatVec(w []float32, rows, cols int, x, out []float32) {
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		var s float32
		for c, v := range row {
			s += v * x[c]
		}
		out[r] = s
	}
}

func naiveRope(v []float32, headDim, pos int, base float64) {
	for h := 0; h < len(v); h += headDim {
		for i := 0; i < headDim/2; i++ {
			theta := float64(pos) / math.Pow(base, 2*float64(i)/float64(headDim))
			sin, cos := math.Sincos(theta)
			a, b := v[h+2*i], v[h+2*i+1]
			v[h+2*i] = a*float32(cos) - b*float32(sin)
			v[h+2*i+1] = a*float32(sin) + b*float32(cos)
		}
	}
}

func sortTopK(x []float32, k int) []int {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if x[idx[a]] != x[idx[b]] {
			return x[idx[a]] > x[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

func randVec(r *rand.Rand, n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	return x
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %x, the naive kernel gives %x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

var (
	shapeRows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 1137}
	shapeCols = []int{1, 3, 64, 128}
)

func TestMatVecMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, rows := range shapeRows {
		for _, cols := range shapeCols {
			w, x := randVec(r, rows*cols), randVec(r, cols)
			got, want := make([]float32, rows), make([]float32, rows)
			MatVec(w, rows, cols, x, got)
			naiveMatVec(w, rows, cols, x, want)
			sameBits(t, "MatVec", got, want)
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 32} {
		for _, rows := range shapeRows {
			for _, cols := range shapeCols {
				w, x := randVec(r, rows*cols), randVec(r, n*cols)
				got, want := make([]float32, n*rows), make([]float32, n*rows)
				MatMul(w, rows, cols, x, n, got)
				for i := 0; i < n; i++ {
					naiveMatVec(w, rows, cols, x[i*cols:(i+1)*cols], want[i*rows:(i+1)*rows])
				}
				sameBits(t, "MatMul", got, want)
			}
		}
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatVec accepted a 2x2 matrix against a 3-vector")
		}
	}()
	MatVec(make([]float32, 4), 2, 2, make([]float32, 3), make([]float32, 2))
}

// eachKernel runs f on every path a Matrix can take on this machine: the
// portable kernel always, the vector kernel when the CPU has it.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	have := vector
	defer func() { vector = have }()
	vector = false
	t.Run("portable", f)
	if have {
		vector = true
		t.Run("vector", f)
	}
}

// Every panel remainder, columns around the accumulator width and none at
// all, and more vectors than one. out is the front of a larger buffer: a
// kernel that stores a whole panel where part of one fits shows in the rest.
func TestMatrixMulMatchesNaive(t *testing.T) {
	var rowsList []int
	for rows := 1; rows <= 70; rows++ {
		rowsList = append(rowsList, rows)
	}
	rowsList = append(rowsList, 127, 128, 129, 1137)
	poison := float32(math.NaN())
	eachKernel(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(6))
		for _, rows := range rowsList {
			for _, cols := range []int{0, 1, 3, 4, 63, 64, 65, 128} {
				w := randVec(r, rows*cols)
				m := NewMatrix(append([]float32(nil), w...), rows, cols)
				for n := 1; n <= 3; n++ {
					x := randVec(r, n*cols)
					buf, want := make([]float32, n*rows+2*panelRows), make([]float32, n*rows)
					for i := range buf {
						buf[i] = poison
					}
					m.Mul(x, n, buf[:n*rows])
					for i := 0; i < n; i++ {
						naiveMatVec(w, rows, cols, x[i*cols:(i+1)*cols], want[i*rows:(i+1)*rows])
					}
					sameBits(t, "Matrix.Mul", buf[:n*rows], want)
					for i, v := range buf[n*rows:] {
						if v == v {
							t.Fatalf("%dx%d, n=%d: Mul wrote %v %d floats past out", rows, cols, n, v, i)
						}
					}
				}
			}
		}
	})
}

func TestMatrixPanicsOnMismatch(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		m := NewMatrix(make([]float32, 6), 2, 3)
		for name, f := range map[string]func(){
			"weights": func() { NewMatrix(make([]float32, 5), 2, 3) },
			"input":   func() { m.Mul(make([]float32, 4), 1, make([]float32, 2)) },
			"output":  func() { m.Mul(make([]float32, 6), 2, make([]float32, 3)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic on a dimension mismatch", name)
					}
				}()
				f()
			}()
		}
	})
}

// Attention's gathered kernels against the per-column Dot and the
// per-column accumulate they replace, over every remainder of four.
func TestGatherKernelsMatchNaive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const width, off, hd = 48, 16, 16
	rows := make([][]float32, 40)
	for i := range rows {
		rows[i] = randVec(r, width)
	}
	for n := 0; n <= 13; n++ {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(r.Intn(len(rows)))
		}
		q, wts := randVec(r, hd), randVec(r, n)
		scale := float32(0.25)

		got, want := make([]float32, n), make([]float32, n)
		GatherDot(rows, idx, off, q, scale, got)
		for j, c := range idx {
			want[j] = Dot(q, rows[c][off:off+hd]) * scale
		}
		sameBits(t, "GatherDot", got, want)

		sum, ref := randVec(r, hd), make([]float32, hd) // sum starts dirty: the kernel must clear it
		GatherAxpy(rows, idx, off, wts, sum)
		for j, c := range idx {
			for i := 0; i < hd; i++ {
				ref[i] += wts[j] * rows[c][off+i]
			}
		}
		sameBits(t, "GatherAxpy", sum, ref)
	}
}

func TestRopeMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const base = 10000
	for _, hd := range []int{2, 16, 64} {
		half := hd / 2
		positions := make([]int, 0, 4100)
		for p := 0; p <= 4096; p++ {
			positions = append(positions, p)
		}
		positions = append(positions, 1<<20, 7, 7) // far out, and a repeated position
		sin, cos := make([]float32, len(positions)*half), make([]float32, len(positions)*half)
		RopeTable(hd, base, positions, sin, cos)
		v := randVec(r, 4*hd)
		for p, pos := range positions {
			got, want := append([]float32(nil), v...), append([]float32(nil), v...)
			Rope(got, sin[p*half:(p+1)*half], cos[p*half:(p+1)*half])
			naiveRope(want, hd, pos, base)
			sameBits(t, "Rope", got, want)
		}
	}
}

func TestRopeTableRejectsBadShapes(t *testing.T) {
	for name, f := range map[string]func(){
		"odd head": func() { RopeTable(3, 10000, []int{0}, make([]float32, 1), make([]float32, 1)) },
		"short":    func() { RopeTable(4, 10000, []int{0, 1}, make([]float32, 2), make([]float32, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RopeTable did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTopKMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sameIdx := func(what string, x []float32, k int) {
		t.Helper()
		got := TopK(x, k, make([]uint64, 2*len(x)), make([]int, len(x)))
		want := sortTopK(x, k)
		if len(got) != len(want) {
			t.Fatalf("%s: k=%d over %d gave %d indices, want %d", what, k, len(x), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: k=%d over %d: rank %d is index %d, the full sort gives %d", what, k, len(x), i, got[i], want[i])
			}
		}
	}
	for _, n := range []int{1, 2, 3, 17, 256, 257, 1137} {
		x := randVec(r, n)
		ties := make([]float32, n) // a handful of distinct values: most comparisons tie
		for i := range ties {
			ties[i] = float32(r.Intn(5))
		}
		flat := make([]float32, n) // every comparison ties: order is by index alone
		for _, k := range []int{1, 2, n / 2, n - 1, n, n + 1, 256, 5000} {
			if k < 1 {
				continue
			}
			sameIdx("random", x, k)
			sameIdx("ties", ties, k)
			sameIdx("flat", flat, k)
		}
	}
	// Softmax output: the real input, with a long tail of tiny equal values.
	logits := randVec(r, 1137)
	for i := range logits {
		logits[i] *= 30
	}
	Softmax(logits)
	sameIdx("softmax", logits, 256)
	// Signed zeros compare equal, so they tie and rank by index; negative
	// values rank below them by magnitude.
	negZero := float32(math.Copysign(0, -1))
	sameIdx("signed zeros", []float32{0, negZero, -1, negZero, 0, -2, 1, -1}, 6)
	// The served shape with the cut among zeros and negatives: a few
	// positives, ±0 in bulk, negatives with heavy ties, and the k-th best
	// deep in the ties.
	mixed := make([]float32, 1137)
	for i := range mixed {
		switch r.Intn(6) {
		case 0:
			mixed[i] = float32(r.NormFloat64())
		case 1:
			mixed[i] = 0
		case 2:
			mixed[i] = negZero
		case 3:
			mixed[i] = -float32(r.Intn(3))
		default:
			mixed[i] = -float32(r.ExpFloat64())
		}
	}
	for _, k := range []int{1, 100, 256, 600, 1000} {
		sameIdx("mixed signs", mixed, k)
	}
	neg := randVec(r, 1137) // all negative, the cut in the last buckets
	for i := range neg {
		neg[i] = -float32(math.Abs(float64(neg[i]))) * 1e37
	}
	neg[3] = float32(math.Inf(-1))
	sameIdx("negative", neg, 256)
	sameIdx("negative", neg, 1137)
	sameIdx("infinities", []float32{float32(math.Inf(-1)), 3, float32(math.Inf(1)), -3, float32(math.Inf(1))}, 4)
	if got := TopK(nil, 4, nil, nil); len(got) != 0 {
		t.Fatalf("TopK of nothing returned %v", got)
	}
	if got := TopK([]float32{1}, 0, nil, nil); len(got) != 0 {
		t.Fatalf("TopK with k=0 returned %v", got)
	}
}

func TestSmallKernels(t *testing.T) {
	x := []float32{1, 2, 3}
	AddInPlace(x, []float32{1, 1, 1})
	if x[0] != 2 || x[2] != 4 {
		t.Fatalf("AddInPlace: %v", x)
	}
	if ArgMax(nil) != -1 || ArgMax([]float32{1, 3, 3, 2}) != 1 {
		t.Fatal("ArgMax: want -1 for empty input and the first of equal maxima")
	}
	Softmax(nil)
	p := []float32{0, 0}
	Softmax(p)
	if p[0] != 0.5 || p[1] != 0.5 {
		t.Fatalf("Softmax of equal logits: %v", p)
	}
	s := []float32{0}
	SiLU(s)
	if s[0] != 0 {
		t.Fatalf("SiLU(0) = %v", s[0])
	}
	n := make([]float32, 2)
	RMSNorm([]float32{3, 3}, []float32{1, 2}, n, 0)
	if n[0] != 1 || n[1] != 2 {
		t.Fatalf("RMSNorm: %v", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dot accepted unequal lengths")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

var sink float32

func BenchmarkMatVec64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w, x, out := NewMatrix(randVec(r, 64*64), 64, 64), randVec(r, 64), make([]float32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Mul(x, 1, out)
	}
	sink = out[0]
}

// BenchmarkLogitsHead is the tied output projection: vocabulary x hidden.
func BenchmarkLogitsHead(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w, x, out := NewMatrix(randVec(r, 1137*64), 1137, 64), randVec(r, 64), make([]float32, 1137)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Mul(x, 1, out)
	}
	sink = out[0]
}

// benchInputs draws m vectors of n N(0, 1) values, the spread of the model's
// logits and pre-activations. A benchmark cycles through them: one input
// repeated would let the branch predictor learn it.
func benchInputs(n, m int) [][]float32 {
	r := rand.New(rand.NewSource(7))
	ins := make([][]float32, m)
	for i := range ins {
		ins[i] = randVec(r, n)
	}
	return ins
}

// BenchmarkSoftmax is get_next_dist's normalisation of the 1137-entry
// vocabulary.
func BenchmarkSoftmax(b *testing.B) {
	ins, x := benchInputs(1137, 64), make([]float32, 1137)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, ins[i%len(ins)])
		Softmax(x)
	}
	sink = x[0]
}

// BenchmarkSiLU is the MLP gate of a 41-token prefill: FFDim 128 x 41.
func BenchmarkSiLU(b *testing.B) {
	ins, x := benchInputs(128*41, 16), make([]float32, 128*41)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, ins[i%len(ins)])
		SiLU(x)
	}
	sink = x[0]
}

// BenchmarkTopK is get_next_dist's selection: the best 256 of a softmaxed
// 1137-entry vocabulary.
func BenchmarkTopK(b *testing.B) {
	ins := benchInputs(1137, 64)
	for _, x := range ins {
		Softmax(x)
	}
	keys, idx := make([]uint64, 2*1137), make([]int, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx = TopK(ins[i%len(ins)], 256, keys, idx)
	}
	sink = float32(idx[0])
}

// BenchmarkCalibScalar is the one-accumulator oracle on 64 x 64: scalar code
// no kernel work in this package can move, which scripts/microbench.sh
// divides every other row by to cancel the speed of the machine.
func BenchmarkCalibScalar(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w, x, out := randVec(r, 64*64), randVec(r, 64), make([]float32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveMatVec(w, 64, 64, x, out)
	}
	sink = out[0]
}
