//go:build !purego

package tensor

// vector reports whether the package runs its AVX2 kernels: Matrix packs its
// weights for mulPanel, and Softmax and SiLU run in lanes. It is what the CPU
// says and nothing else: there is no switch to set.
var vector = haveAVX2()

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state
// (CPUID.1:ECX OSXSAVE and AVX, XCR0 bits 1-2, CPUID.7.0:EBX bit 5).
func haveAVX2() bool

// mulPanel sets out to P·x for one 32-row panel P, stored column by column
// (len(panel) must be 32·len(x)). Lane r of the four accumulators starts at
// +0 and adds float32(P[r][c]·x[c]) for c = 0, 1, …: one rounding for the
// product and one for the sum, the scalar loop's arithmetic.
//
//go:noescape
func mulPanel(panel, x []float32, out *[panelRows]float32)

// The exp kernels (exp_amd64.s) write whole groups of four from the front of
// x and stop before the first group holding an input whose float32 result
// they cannot vouch for; they return how many elements they wrote, which the
// caller finishes with math.Exp.

// expShiftVec sets x[i] = float32(math.Exp(float64(x[i] - sub))).
//
//go:noescape
func expShiftVec(x []float32, sub float32) int

// siluVec sets x[i] = x[i] / (1 + float32(math.Exp(float64(-x[i])))).
//
//go:noescape
func siluVec(x []float32) int

// maxVec returns the largest element of x, whose length is a non-zero
// multiple of 8.
//
//go:noescape
func maxVec(x []float32) float32

// divVec divides every element of x, whose length is a multiple of 8, by d.
//
//go:noescape
func divVec(x []float32, d float32)
