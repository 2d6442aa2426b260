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

// One row of the tile at step p: broadcast its coefficient, two rounded
// VMULPS against the b row segment in Z8/Z9, two rounded VADDPS into the
// row's accumulators — again never VFMADD, accumulator first.
#define ROW(A, ACC0, ACC1, C, P0, P1) \
	VBROADCASTSS (A)(CX*4), C; \
	VMULPS Z8, C, P0;          \
	VMULPS Z9, C, P1;          \
	VADDPS P0, ACC0, ACC0;     \
	VADDPS P1, ACC1, ACC1

// func tile4x32AVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc, nc int)
//
// A 4×32 block of dst lives in Z0–Z7 for all kc steps; per step the b row
// segment is loaded once (Z8, Z9) and meets all four rows. Each of the
// 4·32 lanes is one output element and sees the scalar loop's multiply,
// round, add, round for p = 0, 1, …, kc−1. The blocks run left to right
// over nc columns. The a row pointers sit at a[r][kc] and CX counts p−kc
// up to zero, so one index register walks all four rows. Each step
// prefetches the b row segment eight steps ahead: consecutive segments are
// ldb apart, a stride the hardware prefetchers do not follow at 4 KiB, and
// without it a weight matrix that is only in L3 (a decode step's) ran the
// tile below the per-row kernel at m < 16, n = 1024. Past the slab the
// prefetch only warms lines the next slab or nothing reads; it never faults.
TEXT ·tile4x32AVX512(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	SHLQ $2, R8
	MOVQ kc+48(FP), CX
	MOVQ a+16(FP), SI
	LEAQ (SI)(CX*4), SI
	MOVQ lda+24(FP), R9
	SHLQ $2, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (SI)(R9*2), R11
	LEAQ (R10)(R9*2), R12
	LEAQ (DI)(R8*2), R9 // dst row 2; row 1 is DI+R8, row 3 R9+R8
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), DX
	SHLQ $2, DX
	MOVQ nc+56(FP), R13

block:
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS (DI)(R8*1), Z2
	VMOVUPS 64(DI)(R8*1), Z3
	VMOVUPS (R9), Z4
	VMOVUPS 64(R9), Z5
	VMOVUPS (R9)(R8*1), Z6
	VMOVUPS 64(R9)(R8*1), Z7
	MOVQ    BX, AX
	MOVQ    kc+48(FP), CX
	NEGQ    CX

step:
	PREFETCHT0 (AX)(DX*8)
	PREFETCHT0 64(AX)(DX*8)
	VMOVUPS    (AX), Z8
	VMOVUPS    64(AX), Z9
	ROW(SI, Z0, Z1, Z10, Z14, Z15)
	ROW(R10, Z2, Z3, Z11, Z16, Z17)
	ROW(R11, Z4, Z5, Z12, Z18, Z19)
	ROW(R12, Z6, Z7, Z13, Z20, Z21)
	ADDQ       DX, AX
	INCQ       CX
	JNZ        step

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, (DI)(R8*1)
	VMOVUPS Z3, 64(DI)(R8*1)
	VMOVUPS Z4, (R9)
	VMOVUPS Z5, 64(R9)
	VMOVUPS Z6, (R9)(R8*1)
	VMOVUPS Z7, 64(R9)(R8*1)
	ADDQ    $128, DI
	ADDQ    $128, R9
	ADDQ    $128, BX
	SUBQ    $32, R13
	JNZ     block
	VZEROUPPER
	RET

// One row of the 4×16 tile at step p: the ROW step on a single 16-lane
// accumulator, the b row segment in Z8.
#define ROW16(A, ACC, C, P) \
	VBROADCASTSS (A)(CX*4), C; \
	VMULPS Z8, C, P;           \
	VADDPS P, ACC, ACC

// func tile4x16AVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc int)
//
// tile4x32AVX512's loop on one block of 16 columns: the block lives in
// Z0–Z3, one accumulator per row, and each of its 4·16 lanes sees the same
// multiply, round, add, round for p = 0, 1, …, kc−1. It takes the 16-column
// block the 4×32 blocks leave when n mod 32 ≥ 16 — all of a head-dim-16
// output, the last third of a head-dim-48 one.
TEXT ·tile4x16AVX512(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	SHLQ $2, R8
	MOVQ kc+48(FP), CX
	MOVQ a+16(FP), SI
	LEAQ (SI)(CX*4), SI
	MOVQ lda+24(FP), R9
	SHLQ $2, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (SI)(R9*2), R11
	LEAQ (R10)(R9*2), R12
	LEAQ (DI)(R8*2), R9 // dst row 2; row 1 is DI+R8, row 3 R9+R8
	MOVQ b+32(FP), AX
	MOVQ ldb+40(FP), DX
	SHLQ $2, DX
	VMOVUPS (DI), Z0
	VMOVUPS (DI)(R8*1), Z1
	VMOVUPS (R9), Z2
	VMOVUPS (R9)(R8*1), Z3
	NEGQ    CX

step16:
	PREFETCHT0 (AX)(DX*8)
	VMOVUPS    (AX), Z8
	ROW16(SI, Z0, Z10, Z14)
	ROW16(R10, Z1, Z11, Z15)
	ROW16(R11, Z2, Z12, Z16)
	ROW16(R12, Z3, Z13, Z17)
	ADDQ       DX, AX
	INCQ       CX
	JNZ        step16

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(R8*1)
	VMOVUPS Z2, (R9)
	VMOVUPS Z3, (R9)(R8*1)
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
