#include "textflag.h"

// Lane masks for the last 1–15 rows: 16 quadwords of ones, then 16 of
// zeros. The 16 quadwords from index 16−r on enable the first r lanes.
DATA axpyMasks<>+0x00(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x08(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x10(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x18(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x20(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x28(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x30(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x38(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x40(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x48(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x50(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x58(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x60(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x68(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x70(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x78(SB)/8, $0xffffffffffffffff
DATA axpyMasks<>+0x80(SB)/8, $0
DATA axpyMasks<>+0x88(SB)/8, $0
DATA axpyMasks<>+0x90(SB)/8, $0
DATA axpyMasks<>+0x98(SB)/8, $0
DATA axpyMasks<>+0xa0(SB)/8, $0
DATA axpyMasks<>+0xa8(SB)/8, $0
DATA axpyMasks<>+0xb0(SB)/8, $0
DATA axpyMasks<>+0xb8(SB)/8, $0
DATA axpyMasks<>+0xc0(SB)/8, $0
DATA axpyMasks<>+0xc8(SB)/8, $0
DATA axpyMasks<>+0xd0(SB)/8, $0
DATA axpyMasks<>+0xd8(SB)/8, $0
DATA axpyMasks<>+0xe0(SB)/8, $0
DATA axpyMasks<>+0xe8(SB)/8, $0
DATA axpyMasks<>+0xf0(SB)/8, $0
DATA axpyMasks<>+0xf8(SB)/8, $0
GLOBL axpyMasks<>(SB), RODATA|NOPTR, $256

// func axpyLoopAVX2(vec []float64, n int, a []float64, aStep int, b []float64, bStep int)
//
// DI: vec at the current block; SI: rows left; CX: trips; R8: a at the
// current block's first trip; R9, R11: the steps in bytes; R10: b.
// Per block, AX and BX walk a and b and DX counts trips. Y0–Y3 hold the
// block's 16 elements, Y4 the trip's b, Y5–Y8 the products, Y9–Y12 the
// tail's masks.
TEXT ·axpyLoopAVX2(SB), NOSPLIT, $0-96
	MOVQ vec_base+0(FP), DI
	MOVQ vec_len+8(FP), SI
	MOVQ n+24(FP), CX
	MOVQ a_base+32(FP), R8
	MOVQ aStep+56(FP), R9
	SHLQ $3, R9
	MOVQ b_base+64(FP), R10
	MOVQ bStep+88(FP), R11
	SHLQ $3, R11

block:
	CMPQ SI, $16
	JB   tail
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    R8, AX
	MOVQ    R10, BX
	MOVQ    CX, DX

blockTrip:
	VBROADCASTSD (BX), Y4
	VMULPD       0(AX), Y4, Y5
	VMULPD       32(AX), Y4, Y6
	VMULPD       64(AX), Y4, Y7
	VMULPD       96(AX), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         R9, AX
	ADDQ         R11, BX
	DECQ         DX
	JNZ          blockTrip

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R8
	SUBQ    $16, SI
	JMP     block

tail:
	TESTQ SI, SI
	JZ    done
	LEAQ  axpyMasks<>+128(SB), AX
	SHLQ  $3, SI
	SUBQ  SI, AX
	VMOVDQU    0(AX), Y9
	VMOVDQU    32(AX), Y10
	VMOVDQU    64(AX), Y11
	VMOVDQU    96(AX), Y12
	VMASKMOVPD 0(DI), Y9, Y0
	VMASKMOVPD 32(DI), Y10, Y1
	VMASKMOVPD 64(DI), Y11, Y2
	VMASKMOVPD 96(DI), Y12, Y3
	MOVQ       R8, AX
	MOVQ       R10, BX
	MOVQ       CX, DX

tailTrip:
	VBROADCASTSD (BX), Y4
	VMASKMOVPD   0(AX), Y9, Y5
	VMASKMOVPD   32(AX), Y10, Y6
	VMASKMOVPD   64(AX), Y11, Y7
	VMASKMOVPD   96(AX), Y12, Y8
	VMULPD       Y5, Y4, Y5
	VMULPD       Y6, Y4, Y6
	VMULPD       Y7, Y4, Y7
	VMULPD       Y8, Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         R9, AX
	ADDQ         R11, BX
	DECQ         DX
	JNZ          tailTrip

	VMASKMOVPD Y0, Y9, 0(DI)
	VMASKMOVPD Y1, Y10, 32(DI)
	VMASKMOVPD Y2, Y11, 64(DI)
	VMASKMOVPD Y3, Y12, 96(DI)

done:
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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
