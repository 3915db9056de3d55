// Package tensor provides the small float32 linear-algebra kernels used by
// the functional transformer model. Matrices are flat row-major slices,
// except weights, which sit behind Matrix in whatever layout the machine's
// kernel wants.
//
// Every kernel computes each output element as the one-accumulator loop
// would (kept in the tests as the oracle): products rounded to float32,
// then summed in index order from zero. The Go kernels are blocked for
// instruction-level parallelism, several output elements side by side;
// Matrix.Mul on amd64 with AVX2 runs 32 of them in vector lanes
// (matrix_amd64.s). Lanes are independent sums, so neither reassociates a
// floating-point sum, and no multiply is fused with its add: a product is
// written float32(a * b), the conversion the language forbids fusing
// across, and the assembly has no FMA. The kernels' sums are therefore the
// same bits on both Matrix paths and on every architecture.
//
// exp is this package's to keep too: Softmax and SiLU return, bit for bit,
// what their scalar loops over float32(math.Exp(float64(x))) return. With
// AVX2 they run in lanes (exp_amd64.s), and a lane whose float32 the kernel
// cannot prove to be math.Exp's goes to math.Exp; max and the divide round
// in lanes exactly as the scalar instructions do, and the sum stays scalar,
// in index order. math.Sincos stays the standard library's. Build with
// -tags purego to leave the assembly out.
package tensor

import "math"

// MatVec computes out = W·x for a rows×cols matrix W.
func MatVec(w []float32, rows, cols int, x, out []float32) {
	MatMul(w, rows, cols, x, 1, out)
}

// MatMul computes out[t] = W·x[t] for the n vectors of cols elements packed
// in x; out packs the n results of rows elements each. Four rows of W are
// held against every vector before moving on, one accumulator per row.
func MatMul(w []float32, rows, cols int, x []float32, n int, out []float32) {
	if len(w) != rows*cols || len(x) != n*cols || len(out) != n*rows {
		panic("tensor: MatMul dimension mismatch")
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		for t := 0; t < n; t++ {
			xt := x[t*cols:][:cols]
			w0 := w[r*cols:][:len(xt)]
			w1 := w[(r+1)*cols:][:len(xt)]
			w2 := w[(r+2)*cols:][:len(xt)]
			w3 := w[(r+3)*cols:][:len(xt)]
			var s0, s1, s2, s3 float32
			for c, xv := range xt {
				s0 += float32(w0[c] * xv)
				s1 += float32(w1[c] * xv)
				s2 += float32(w2[c] * xv)
				s3 += float32(w3[c] * xv)
			}
			o := out[t*rows+r:][:4]
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
	}
	for ; r < rows; r++ {
		row := w[r*cols:][:cols]
		for t := 0; t < n; t++ {
			out[t*rows+r] = Dot(row, x[t*cols:][:cols])
		}
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float32
	for i := range a {
		s += float32(a[i] * b[i])
	}
	return s
}

// GatherDot computes out[j] = scale · Dot(x, rows[idx[j]][off:off+len(x)]):
// the attention scores of one head against the key vectors picked by idx.
// Four keys are scored per pass, each product summed in order.
func GatherDot(rows [][]float32, idx []int32, off int, x []float32, scale float32, out []float32) {
	out = out[:len(idx)]
	j := 0
	for ; j+4 <= len(idx); j += 4 {
		k0 := rows[idx[j]][off:][:len(x)]
		k1 := rows[idx[j+1]][off:][:len(x)]
		k2 := rows[idx[j+2]][off:][:len(x)]
		k3 := rows[idx[j+3]][off:][:len(x)]
		var s0, s1, s2, s3 float32
		for c, xv := range x {
			s0 += float32(xv * k0[c])
			s1 += float32(xv * k1[c])
			s2 += float32(xv * k2[c])
			s3 += float32(xv * k3[c])
		}
		o := out[j:][:4]
		o[0], o[1], o[2], o[3] = s0*scale, s1*scale, s2*scale, s3*scale
	}
	for ; j < len(idx); j++ {
		out[j] = Dot(x, rows[idx[j]][off:][:len(x)]) * scale
	}
}

// GatherAxpy computes out = Σ_j wts[j] · rows[idx[j]][off:off+len(out)],
// adding the terms to zero in j order: the attention-weighted sum of the
// value vectors picked by idx. Four values are folded in per pass so each
// output element is loaded and stored once per four terms.
func GatherAxpy(rows [][]float32, idx []int32, off int, wts, out []float32) {
	wts = wts[:len(idx)]
	for i := range out {
		out[i] = 0
	}
	j := 0
	for ; j+4 <= len(idx); j += 4 {
		v0 := rows[idx[j]][off:][:len(out)]
		v1 := rows[idx[j+1]][off:][:len(out)]
		v2 := rows[idx[j+2]][off:][:len(out)]
		v3 := rows[idx[j+3]][off:][:len(out)]
		a0, a1, a2, a3 := wts[j], wts[j+1], wts[j+2], wts[j+3]
		for i, o := range out {
			o += float32(a0 * v0[i])
			o += float32(a1 * v1[i])
			o += float32(a2 * v2[i])
			o += float32(a3 * v3[i])
			out[i] = o
		}
	}
	for ; j < len(idx); j++ {
		v := rows[idx[j]][off:][:len(out)]
		a := wts[j]
		for i := range out {
			out[i] += float32(a * v[i])
		}
	}
}

// AddInPlace sets dst += src.
func AddInPlace(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// RMSNorm writes weight ⊙ x/rms(x) into out (out may alias x).
func RMSNorm(x, weight, out []float32, eps float32) {
	var ss float32
	for _, v := range x {
		ss += float32(v * v)
	}
	inv := 1 / float32(math.Sqrt(float64(ss/float32(len(x))+eps)))
	weight, out = weight[:len(x)], out[:len(x)]
	for i := range x {
		out[i] = x[i] * inv * weight[i]
	}
}

// Softmax normalizes x in place with max-subtraction for stability: e[i] =
// float32(math.Exp(float64(x[i] - max))), summed in index order, then each
// divided by the sum. With a NaN in x every output is NaN.
func Softmax(x []float32) {
	if len(x) == 0 {
		return
	}
	mx, i := x[0], 1
	if vector && len(x) >= 8 {
		i = len(x) &^ 7
		mx = maxVec(x[:i])
	}
	for _, v := range x[i:] {
		if v > mx {
			mx = v
		}
	}
	expShift(x, mx)
	var sum float32
	for _, e := range x {
		sum += e
	}
	if sum == 0 {
		return
	}
	i = 0
	if vector {
		i = len(x) &^ 7
		divVec(x[:i], sum)
	}
	for ; i < len(x); i++ {
		x[i] /= sum
	}
}

// expShift sets x[i] = float32(math.Exp(float64(x[i] - sub))). The vector
// kernel does whole groups of four up to one it cannot vouch for; that group
// and the tail go through math.Exp, and the kernel picks up again at the
// next group.
func expShift(x []float32, sub float32) {
	for i := 0; i < len(x); i++ {
		if vector && i%4 == 0 {
			if i += expShiftVec(x[i:], sub); i == len(x) {
				return
			}
		}
		x[i] = float32(math.Exp(float64(x[i] - sub)))
	}
}

// SiLU applies x*sigmoid(x) elementwise in place: x[i] / (1 +
// float32(math.Exp(float64(-x[i])))), in groups as expShift.
func SiLU(x []float32) {
	for i := 0; i < len(x); i++ {
		if vector && i%4 == 0 {
			if i += siluVec(x[i:]); i == len(x) {
				return
			}
		}
		v := x[i]
		x[i] = v / (1 + float32(math.Exp(float64(-v))))
	}
}

// RopeTable fills the rotary-embedding angle tables for the given absolute
// positions: sin and cos hold headDim/2 entries per position, the float32
// roundings of the float64 sin and cos of pos / base^(2i/headDim).
func RopeTable(headDim int, base float64, positions []int, sin, cos []float32) {
	if headDim%2 != 0 {
		panic("tensor: Rope requires even headDim")
	}
	half := headDim / 2
	if len(sin) != len(positions)*half || len(cos) != len(sin) {
		panic("tensor: RopeTable dimension mismatch")
	}
	for i := 0; i < half; i++ {
		freq := math.Pow(base, 2*float64(i)/float64(headDim))
		for p, pos := range positions {
			s, c := math.Sincos(float64(pos) / freq)
			sin[p*half+i], cos[p*half+i] = float32(s), float32(c)
		}
	}
}

// Rope applies rotary position embedding in place to v, a concatenation of
// heads of size 2·len(sin), by one position's RopeTable angles.
func Rope(v, sin, cos []float32) {
	half := len(sin)
	cos = cos[:half]
	for h := 0; h+2*half <= len(v); h += 2 * half {
		head := v[h:][:2*half]
		for i, s := range sin {
			c := cos[i]
			a, b := head[2*i], head[2*i+1]
			head[2*i] = float32(a*c) - float32(b*s)
			head[2*i+1] = float32(a*s) + float32(b*c)
		}
	}
}

// TopK selects the k largest elements of x under the total order "value
// descending, then index ascending". It writes their indices, best first,
// into idx and returns idx[:min(k, len(x))]; idx must be at least that
// long, and keys is scratch of at least 2·len(x) elements. x must not
// contain NaN.
//
// Each element has a rank, a uint32 whose order is the order of values
// (rankBits), and a key: the rank above the index, a uint64 whose order is
// the total order. One pass writes the keys, counts the top topKDigit rank
// bits (the bucket) and finds the best rank; scanning the counts from the
// best's bucket finds the bucket holding the k-th best. A second pass keeps,
// in index order, the keys up to and including that bucket — k of them plus
// a few bucket-mates — and a stable least-significant-digit radix sort
// orders them: by the 20 rank bits below the bucket in digits of 8, 8 and 4
// bits, then by the bucket, whose counts the first pass already has. The
// first k are the answer. O(n + k), and no step branches on the data, which
// matters more than the operation count: every call sees different logits,
// so a comparison sort or heap mispredicts about every other comparison.
func TopK(x []float32, k int, keys []uint64, idx []int) []int {
	n := len(x)
	if k > n {
		k = n
	}
	if k <= 0 {
		return idx[:0]
	}
	keys, tmp := keys[:n], keys[n:2*n]
	tmp = tmp[:len(x)] // the same length, in a form the compiler can drop tmp[i]'s bounds check by
	var count [1 << topKDigit]int32
	best := uint32(math.MaxUint32)
	for i, v := range x {
		r := rankBits(v)
		tmp[i] = uint64(r)<<32 | uint64(i)
		count[r>>(32-topKDigit)]++
		best = min(best, r)
	}
	first := best >> (32 - topKDigit)
	cut := first
	for seen := count[cut]; int(seen) < k; seen += count[cut] {
		cut++
	}
	m := 0
	for _, key := range tmp {
		keys[m] = key                                           // m never passes the read position
		m += int((uint32(key>>(64-topKDigit)) - cut - 1) >> 31) // 1 when the bucket is <= cut
	}
	var lo, mid [256]int32
	var hi [16]int32
	for _, key := range keys[:m] {
		lo[byte(key>>32)]++
		mid[byte(key>>40)]++
		hi[key>>48&15]++
	}
	a, b := keys[:m], tmp[:m]
	radixPass(a, b, lo[:], 32, 0xFF, 0)
	radixPass(b, a, mid[:], 40, 0xFF, 0)
	radixPass(a, b, hi[:], 48, 15, 0)
	radixPass(b, a, count[first:cut+1], 64-topKDigit, 1<<topKDigit-1, uint64(first))
	idx = idx[:k]
	for i, key := range a[:k] {
		idx[i] = int(uint32(key))
	}
	return idx
}

// radixPass copies src into dst ordered by the digit key>>shift&mask - base,
// stably; count holds how many keys have each digit.
func radixPass(src, dst []uint64, count []int32, shift uint, mask, base uint64) {
	var sum int32
	for d, c := range count {
		count[d] = sum
		sum += c
	}
	for _, key := range src {
		d := key>>shift&mask - base
		dst[count[d]] = key
		count[d]++
	}
}

// topKDigit is how many leading rank bits TopK buckets by: sign, exponent
// and three mantissa bits, an eighth of an octave per bucket.
const topKDigit = 12

// rankBits maps v to a uint32 that is smaller the larger v is, and equal
// exactly when the values compare equal. v + 0 turns -0 into +0 and leaves
// every other value alone; a negative value keeps its bits (a larger
// magnitude ranks later), a positive one has all but the sign flipped (a
// larger value ranks earlier, and ahead of every negative).
func rankBits(v float32) uint32 {
	b := math.Float32bits(v + 0)
	neg := uint32(int32(b) >> 31) // all ones when v < 0
	return b ^ (^neg >> 1)
}

// ArgMax returns the index of the largest element (first on ties), or -1
// for empty input.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}
