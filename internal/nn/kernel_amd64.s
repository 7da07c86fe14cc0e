#include "textflag.h"

// func strips2x8(c0, c1, a0, a1, b *float64, astep, bstep, kn, groups int)
TEXT ·strips2x8(SB), NOSPLIT, $0-72
	MOVQ c0+0(FP), DI
	MOVQ c1+8(FP), SI
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	SUBQ R8, R9          // a1 as a byte offset from a0
	MOVQ b+32(FP), R10
	MOVQ astep+40(FP), R11
	SHLQ $3, R11
	MOVQ bstep+48(FP), R12
	SHLQ $3, R12
	MOVQ kn+56(FP), R13
	MOVQ groups+64(FP), BX

strip:
	VXORPD Y0, Y0, Y0    // c0[0:4]
	VXORPD Y1, Y1, Y1    // c0[4:8]
	VXORPD Y2, Y2, Y2    // c1[0:4]
	VXORPD Y3, Y3, Y3    // c1[4:8]
	MOVQ   R8, AX
	MOVQ   R10, DX
	MOVQ   R13, CX

step:
	VBROADCASTSD (AX), Y4
	VBROADCASTSD (AX)(R9*1), Y5
	VMOVUPD      (DX), Y6
	VMOVUPD      32(DX), Y7
	VMULPD       Y6, Y4, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       Y7, Y4, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       Y6, Y5, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       Y7, Y5, Y11
	VADDPD       Y11, Y3, Y3
	ADDQ         R11, AX
	ADDQ         R12, DX
	DECQ         CX
	JNZ          step

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, 32(SI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, R10
	DECQ    BX
	JNZ     strip

	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
