//go:build !purego

#include "textflag.h"

// One term of the fused update for the four accumulators acc0..acc3 (32
// floats at element offset AX): prod = a·b as one rounded VMULPS, then
// acc += prod as one rounded VADDPS — never VFMADD, whose single rounding
// the scalar loop does not perform. The accumulator is the first source of
// the add, as in the scalar `v += a*b`.
#define TERM32(B, A) \
	VMULPS (B)(AX*4), A, Y8;    \
	VMULPS 32(B)(AX*4), A, Y9;  \
	VMULPS 64(B)(AX*4), A, Y10; \
	VMULPS 96(B)(AX*4), A, Y11; \
	VADDPS Y8, Y4, Y4;          \
	VADDPS Y9, Y5, Y5;          \
	VADDPS Y10, Y6, Y6;         \
	VADDPS Y11, Y7, Y7

#define TERM8(B, A) \
	VMULPS (B)(AX*4), A, Y8; \
	VADDPS Y8, Y4, Y4

// func axpy4AVX2(dst, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)
//
// dst[j] += a0·b0[j]; += a1·b1[j]; += a2·b2[j]; += a3·b3[j] for j in [0, n),
// n a multiple of 8. Eight lanes are eight distinct j: each element sees the
// scalar loop's four multiplies and four adds, in the same order, each
// rounded separately. Loads and stores are unaligned; nothing at or past
// element n is touched.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), CX
	VBROADCASTSS a0+48(FP), Y0
	VBROADCASTSS a1+52(FP), Y1
	VBROADCASTSS a2+56(FP), Y2
	VBROADCASTSS a3+60(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $~31, DX

loop32:
	CMPQ AX, DX
	JGE  loop8
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y5
	VMOVUPS 64(DI)(AX*4), Y6
	VMOVUPS 96(DI)(AX*4), Y7
	TERM32(SI, Y0)
	TERM32(R8, Y1)
	TERM32(R9, Y2)
	TERM32(R10, Y3)
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y5, 32(DI)(AX*4)
	VMOVUPS Y6, 64(DI)(AX*4)
	VMOVUPS Y7, 96(DI)(AX*4)
	ADDQ $32, AX
	JMP  loop32

loop8:
	CMPQ AX, CX
	JGE  done
	VMOVUPS (DI)(AX*4), Y4
	TERM8(SI, Y0)
	TERM8(R8, Y1)
	TERM8(R9, Y2)
	TERM8(R10, Y3)
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ $8, AX
	JMP  loop8

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
