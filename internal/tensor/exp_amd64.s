//go:build !purego

#include "textflag.h"

// The elementwise half of the model on AVX2: Softmax's max, exp and divide,
// and SiLU. Every lane returns the bits the scalar Go loop returns.
//
// exp runs in float64 lanes. k = round(x·log2 e) by adding 1.5·2^52, which
// leaves k in the low mantissa bits of t; r = x - k·ln2 with ln2 split in
// two (k·ln2hi is exact for |k| < 2^20, and so is x - k·ln2hi); exp(r) by
// the Taylor polynomial of degree 10 with separate multiplies and adds;
// then k added to the exponent bits. For |r| <= ln2/2 the polynomial's
// relative error is below 3.1e-13, under 2800 units in the last place of
// the float64 result y; the roundings of its steps and of r add a few more,
// and math.Exp is within one unit of the exact value.
//
// float32(y) keeps the top 23 of y's 52 mantissa bits and rounds by the
// other 29: it can differ from float32(exact) and float32(math.Exp) only if
// one of them lies across the midpoint between two float32s from y. A lane
// whose low 29 bits are more than expTol units from that midpoint (2^28) is
// therefore math.Exp's float32. A lane within expTol of it, one lane in
// 2^16, or with x outside [expLo, expHi] (where exp(x) is not a normal
// float32), or NaN, is not vouched for: the kernels stop before its group,
// and Go computes the group with math.Exp.

#define expTol 4096

// VEC4 fills 32 bytes of expc at off with four copies of v.
#define VEC4(off, v) DATA expc<>+(off)(SB)/8, v; DATA expc<>+(off+8)(SB)/8, v; DATA expc<>+(off+16)(SB)/8, v; DATA expc<>+(off+24)(SB)/8, v

VEC4(0, $1.4426950408889634)      // LOG2E
VEC4(32, $0x4338000000000000)     // MAGIC: 1.5·2^52
VEC4(64, $0x3fe62e42fee00000)     // LN2HI: ln 2 to 32 bits
VEC4(96, $0x3dea39ef35793c76)     // LN2LO: ln 2 - LN2HI
VEC4(128, $-87.33)                // EXPLO: exp(EXPLO) > 2^-126
VEC4(160, $88.72)                 // EXPHI: exp(EXPHI) < 2^128·(1 - 2^-25)
VEC4(192, $1.0)                   // ONE
VEC4(224, $(expTol - (1<<28)))    // MIDOFF
VEC4(256, $((1<<29) - 1))         // LOW29
VEC4(288, $(2*expTol))            // MIDLIM
VEC4(320, $0.5)                   // C2 = 1/2!
VEC4(352, $0x3fc5555555555555)    // 1/3!
VEC4(384, $0x3fa5555555555555)    // 1/4!
VEC4(416, $0x3f81111111111111)    // 1/5!
VEC4(448, $0x3f56c16c16c16c17)    // 1/6!
VEC4(480, $0x3f2a01a01a01a01a)    // 1/7!
VEC4(512, $0x3efa01a01a01a01a)    // 1/8!
VEC4(544, $0x3ec71de3a556c734)    // 1/9!
VEC4(576, $0x3e927e4fb7789f5c)    // C10 = 1/10!
VEC4(608, $0x8000000080000000)    // F32SIGN: eight float32 sign bits
VEC4(640, $0x3f8000003f800000)    // F32ONE: eight float32 ones
GLOBL expc<>(SB), RODATA|NOPTR, $672

#define LOG2E expc<>+0(SB)
#define MAGIC expc<>+32(SB)
#define LN2HI expc<>+64(SB)
#define LN2LO expc<>+96(SB)
#define EXPLO expc<>+128(SB)
#define EXPHI expc<>+160(SB)
#define ONE expc<>+192(SB)
#define MIDOFF expc<>+224(SB)
#define LOW29 expc<>+256(SB)
#define MIDLIM expc<>+288(SB)
#define C2 expc<>+320(SB)
#define C3 expc<>+352(SB)
#define C4 expc<>+384(SB)
#define C5 expc<>+416(SB)
#define C6 expc<>+448(SB)
#define C7 expc<>+480(SB)
#define C8 expc<>+512(SB)
#define C9 expc<>+544(SB)
#define C10 expc<>+576(SB)
#define F32SIGN expc<>+608(SB)
#define F32ONE expc<>+640(SB)

// EXP4 sets x = exp(x) in four float64 lanes, and ok to all ones in each
// lane whose float32 rounding it vouches for and to zero in the others. It
// overwrites t, r, r2, a, b and c. In order: the range test (GE_OQ, LE_OQ:
// false for NaN), t, k, r = (x - k·ln2hi) - k·ln2lo, the polynomial by
// Estrin's scheme, a short dependency chain:
//
//	(1 + r) + (c2 + c3·r)·r² + ((c4 + c5·r) + (c6 + c7·r)·r²)·r⁴ + ((c8 + c9·r) + c10·r²)·r⁸
//
// then k<<52 added to its bits, and the midpoint test: the low 29 bits plus
// expTol - 2^28, mod 2^29, above 2·expTol.
#define EXP4(x, t, r, r2, a, b, c, ok) \
	VCMPPD   $0x1d, EXPLO, x, ok \
	VCMPPD   $0x12, EXPHI, x, t  \
	VANDPD   t, ok, ok           \
	VMULPD   LOG2E, x, t         \
	VADDPD   MAGIC, t, t         \
	VSUBPD   MAGIC, t, r         \
	VMULPD   LN2HI, r, r2        \
	VSUBPD   r2, x, x            \
	VMULPD   LN2LO, r, r         \
	VSUBPD   r, x, r             \
	VMULPD   r, r, r2            \
	VMULPD   C3, r, a            \
	VADDPD   C2, a, a            \
	VADDPD   ONE, r, x           \
	VMULPD   r2, a, a            \
	VADDPD   x, a, a             \
	VMULPD   C7, r, b            \
	VADDPD   C6, b, b            \
	VMULPD   C5, r, c            \
	VADDPD   C4, c, c            \
	VMULPD   r2, b, b            \
	VADDPD   c, b, b             \
	VMULPD   C9, r, x            \
	VADDPD   C8, x, x            \
	VMULPD   C10, r2, c          \
	VADDPD   c, x, x             \
	VMULPD   r2, r2, r2          \
	VMULPD   r2, b, b            \
	VADDPD   b, a, a             \
	VMULPD   r2, r2, r2          \
	VMULPD   r2, x, x            \
	VADDPD   x, a, a             \
	VPSLLQ   $52, t, t           \
	VPADDQ   t, a, x             \
	VPADDQ   MIDOFF, x, t        \
	VPAND    LOW29, t, t         \
	VPCMPGTQ MIDLIM, t, t        \
	VPAND    t, ok, ok

// EXP8 is EXP4 on Y0 and Y8, ok in Y7: two independent chains.
#define EXP8 \
	EXP4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)         \
	EXP4(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)  \
	VANDPD Y15, Y7, Y7

// ALLOK jumps to done unless every lane of Y7 is ok.
#define ALLOK \
	VMOVMSKPD Y7, DX \
	CMPQ      DX, $15 \
	JNE       done

// func expShiftVec(x []float32, sub float32) int
//
// x[i] = float32(exp(float64(x[i] - sub))), eight and then four at a time,
// up to the last whole group of four or the first group with a lane EXP4
// does not vouch for, which is left as it was; returns how many elements it
// wrote.
TEXT ·expShiftVec(SB), NOSPLIT, $0-40
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ AX, AX
loop:
	LEAQ         8(AX), DX
	CMPQ         DX, CX
	JGT          four
	VMOVUPS      (SI)(AX*4), Y0
	VBROADCASTSS sub+24(FP), Y8
	VSUBPS       Y8, Y0, Y0
	VEXTRACTF128 $1, Y0, X8
	VCVTPS2PD    X0, Y0
	VCVTPS2PD    X8, Y8
	EXP8
	ALLOK
	VCVTPD2PSY   Y0, X0
	VCVTPD2PSY   Y8, X8
	VINSERTF128  $1, X8, Y0, Y0
	VMOVUPS      Y0, (SI)(AX*4)
	ADDQ         $8, AX
	JMP          loop
four:
	LEAQ         4(AX), DX
	CMPQ         DX, CX
	JGT          done
	VMOVUPS      (SI)(AX*4), X0
	VBROADCASTSS sub+24(FP), X8
	VSUBPS       X8, X0, X0
	VCVTPS2PD    X0, Y0
	EXP4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	ALLOK
	VCVTPD2PSY   Y0, X0
	VMOVUPS      X0, (SI)(AX*4)
	ADDQ         $4, AX
done:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func siluVec(x []float32) int
//
// x[i] = x[i] / (1 + float32(exp(float64(-x[i])))), in expShiftVec's groups
// and with its stopping rule.
TEXT ·siluVec(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ AX, AX
loop:
	LEAQ         8(AX), DX
	CMPQ         DX, CX
	JGT          four
	VMOVUPS      (SI)(AX*4), Y0
	VXORPS       F32SIGN, Y0, Y0
	VEXTRACTF128 $1, Y0, X8
	VCVTPS2PD    X0, Y0
	VCVTPS2PD    X8, Y8
	EXP8
	ALLOK
	VCVTPD2PSY   Y0, X0
	VCVTPD2PSY   Y8, X8
	VINSERTF128  $1, X8, Y0, Y0
	VADDPS       F32ONE, Y0, Y0
	VMOVUPS      (SI)(AX*4), Y1
	VDIVPS       Y0, Y1, Y0
	VMOVUPS      Y0, (SI)(AX*4)
	ADDQ         $8, AX
	JMP          loop
four:
	LEAQ         4(AX), DX
	CMPQ         DX, CX
	JGT          done
	VMOVUPS      (SI)(AX*4), X0
	VXORPS       F32SIGN, X0, X0
	VCVTPS2PD    X0, Y0
	EXP4(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	ALLOK
	VCVTPD2PSY   Y0, X0
	VADDPS       F32ONE, X0, X0
	VMOVUPS      (SI)(AX*4), X1
	VDIVPS       X0, X1, X0
	VMOVUPS      X0, (SI)(AX*4)
	ADDQ         $4, AX
done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func maxVec(x []float32) float32
//
// The largest element of x, whose length is a non-zero multiple of 8.
TEXT ·maxVec(SB), NOSPLIT, $0-28
	MOVQ    x_base+0(FP), SI
	MOVQ    x_len+8(FP), CX
	VMOVUPS (SI), Y0
	MOVQ    $8, AX
loop:
	CMPQ   AX, CX
	JGE    fold
	VMAXPS (SI)(AX*4), Y0, Y0
	ADDQ   $8, AX
	JMP    loop
fold:
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VMOVHLPS     X0, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VMAXPS       X1, X0, X0
	VMOVSS       X0, ret+24(FP)
	VZEROUPPER
	RET

// func divVec(x []float32, d float32)
//
// x[i] /= d, eight at a time; len(x) is a multiple of 8.
TEXT ·divVec(SB), NOSPLIT, $0-28
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSS d+24(FP), Y1
	XORQ         AX, AX
loop:
	CMPQ    AX, CX
	JGE     done
	VMOVUPS (SI)(AX*4), Y0
	VDIVPS  Y1, Y0, Y0
	VMOVUPS Y0, (SI)(AX*4)
	ADDQ    $8, AX
	JMP     loop
done:
	VZEROUPPER
	RET
