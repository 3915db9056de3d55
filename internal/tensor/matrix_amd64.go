//go:build !purego

package tensor

// vector reports whether Matrix packs its weights for mulPanel. It is what
// the CPU says and nothing else: there is no switch to set.
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
