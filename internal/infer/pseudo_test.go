package infer

import (
	"testing"

	"pie/internal/sim"
	"pie/internal/tokenizer"
)

// pseudoTokenRef is the stand-in token stream as it was written before the
// reciprocal: one 64-bit division per token. pseudoMod.token must equal it.
func pseudoTokenRef(vocab int, inst, seq uint64, i int) int {
	x := inst*0x9E3779B97F4A7C15 ^ seq*0xD6E8FEB86659FD93 ^ uint64(i)*0xCA5A826395121157
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	// Skip special tokens.
	return 4 + int(x%uint64(vocab-4))
}

func TestPseudoTokenMatchesDivision(t *testing.T) {
	// The catalog's models share one tokenizer, hence one vocabulary; the
	// other sizes are real ones plus the edges of the reduction (a modulus
	// of 1, powers of two, one either side of them).
	vocabs := []int{tokenizer.New().VocabSize(), 5, 6, 4 + 1<<15, 4 + 1<<15 + 1, 4 + 1<<15 - 1, 32000, 50257, 128256, 4 + 1<<31, 4 + 1<<62}
	r := sim.NewRNG(14)
	for _, v := range vocabs {
		m := newPseudoMod(v)
		for n := 0; n < 1_000_000; n++ {
			inst, seq, i := r.Uint64(), r.Uint64(), r.Intn(256)
			if n%4 == 0 { // the small ids the engine really uses
				inst, seq = inst%4096, seq%65536
			}
			if got, want := m.token(pseudoBase(inst, seq), i), pseudoTokenRef(v, inst, seq, i); got != want {
				t.Fatalf("vocab %d inst %d seq %d i %d: token %d, want %d", v, inst, seq, i, got, want)
			}
		}
	}
	// The extremes of x itself.
	for _, v := range vocabs {
		m := newPseudoMod(v)
		for _, x := range []uint64{0, 1, m.d - 1, m.d, m.d + 1, ^uint64(0), ^uint64(0) - 1, 1 << 63} {
			if got := m.rem(x); got != x%m.d {
				t.Fatalf("d %d x %d: rem %d, want %d", m.d, x, got, x%m.d)
			}
		}
	}
}
