//go:build !purego

#include "textflag.h"

// func haveAVX2() bool
TEXT ·haveAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7                    // highest basic leaf
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27 | 1<<28), CX      // OSXSAVE, AVX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX                    // XCR0: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX                    // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
no:
	RET

// func mulPanel(panel, x []float32, out *[32]float32)
//
// Per column: one broadcast of x[c], four multiplies of the column's 32
// weights, four adds into the accumulators. Multiply and add stay separate
// instructions, never a fused one: the product is rounded before it is
// summed, as in the portable kernel, so each lane holds that kernel's float.
TEXT ·mulPanel(SB), NOSPLIT, $0-56
	MOVQ   panel_base+0(FP), SI
	MOVQ   x_base+24(FP), DX
	MOVQ   x_len+32(FP), CX
	MOVQ   out+48(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     store
column:
	VBROADCASTSS (DX), Y4
	VMULPS       (SI), Y4, Y5
	VMULPS       32(SI), Y4, Y6
	VMULPS       64(SI), Y4, Y7
	VMULPS       96(SI), Y4, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	ADDQ         $128, SI
	ADDQ         $4, DX
	DECQ         CX
	JNZ          column
store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET
