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

// A 4×32 block of dst in Z0–Z7, two accumulators per row.
#define LOAD4x32 \
	VMOVUPS (DI), Z0;         \
	VMOVUPS 64(DI), Z1;       \
	VMOVUPS (DI)(R8*1), Z2;   \
	VMOVUPS 64(DI)(R8*1), Z3; \
	VMOVUPS (R9), Z4;         \
	VMOVUPS 64(R9), Z5;       \
	VMOVUPS (R9)(R8*1), Z6;   \
	VMOVUPS 64(R9)(R8*1), Z7

#define STORE4x32 \
	VMOVUPS Z0, (DI);         \
	VMOVUPS Z1, 64(DI);       \
	VMOVUPS Z2, (DI)(R8*1);   \
	VMOVUPS Z3, 64(DI)(R8*1); \
	VMOVUPS Z4, (R9);         \
	VMOVUPS Z5, 64(R9);       \
	VMOVUPS Z6, (R9)(R8*1);   \
	VMOVUPS Z7, 64(R9)(R8*1)

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
	LOAD4x32
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

	STORE4x32
	ADDQ    $128, DI
	ADDQ    $128, R9
	ADDQ    $128, BX
	SUBQ    $32, R13
	JNZ     block
	VZEROUPPER
	RET

// ROW with the zero skip: K is set where the broadcast coefficient is not
// ±0 (VCMPPS NEQ_UQ: true for a NaN), and both adds are merge-masked by it,
// so a ±0 coefficient leaves the row's 32 accumulators as they were.
#define ROWSKIP32(A, ACC0, ACC1, C, P0, P1, K) \
	VBROADCASTSS (A)(CX*4), C; \
	VCMPPS $4, Z31, C, K;      \
	VMULPS Z8, C, P0;          \
	VMULPS Z9, C, P1;          \
	VADDPS P0, ACC0, K, ACC0;  \
	VADDPS P1, ACC1, K, ACC1

// func tile4x32MaskAVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc, nc int)
//
// tile4x32AVX512 with the zero skip: the same blocks, loads, stores and
// prefetches, each row's two adds at step p merge-masked by ROWSKIP32's
// compare. Each of the 4·32 lanes of a block sees the scalar loop's
// multiply, round, add, round for p = 0, 1, …, kc−1, the add dropped
// exactly when a[r][p] is ±0. nc is a positive multiple of 32.
TEXT ·tile4x32MaskAVX512(SB), NOSPLIT, $0-64
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
	MOVQ   nc+56(FP), R13
	VPXORD Z31, Z31, Z31

blockx:
	LOAD4x32
	MOVQ    BX, AX
	MOVQ    kc+48(FP), CX
	NEGQ    CX

stepx:
	PREFETCHT0 (AX)(DX*8)
	PREFETCHT0 64(AX)(DX*8)
	VMOVUPS    (AX), Z8
	VMOVUPS    64(AX), Z9
	ROWSKIP32(SI, Z0, Z1, Z10, Z14, Z15, K3)
	ROWSKIP32(R10, Z2, Z3, Z11, Z16, Z17, K4)
	ROWSKIP32(R11, Z4, Z5, Z12, Z18, Z19, K5)
	ROWSKIP32(R12, Z6, Z7, Z13, Z20, Z21, K6)
	ADDQ       DX, AX
	INCQ       CX
	JNZ        stepx

	STORE4x32
	ADDQ    $128, DI
	ADDQ    $128, R9
	ADDQ    $128, BX
	SUBQ    $32, R13
	JNZ     blockx
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

// One row of the masked tile at step p with the zero skip: broadcast the
// coefficient, set K to the column mask K2 and-ed with "coefficient ≠ 0 or
// NaN" (VCMPPS NEQ_UQ under K2), then the ROW16 multiply and add, the add
// merge-masked by K: a lane whose coefficient is ±0 keeps its accumulator
// bits, whatever the b lane holds — the scalar `if av == 0 { continue }`.
#define ROWSKIP(A, ACC, C, P, K) \
	VBROADCASTSS (A)(CX*4), C; \
	VCMPPS $4, Z31, C, K2, K;  \
	VMULPS Z8, C, P;           \
	VADDPS P, ACC, K, ACC

// func tile4x16MaskAVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc, nc int, skip bool)
//
// tile4x16AVX512 under the opmask, over nc ≥ 1 columns in blocks of 16
// left to right. The column mask K2 is all sixteen lanes, and the low
// nc mod 16 on the last block when nc is not a multiple of 16; it masks the
// dst loads (zeroing), the b loads (zeroing) and the dst stores, so a lane
// at or past column nc is never read or written (masked-off lanes do not
// fault). With skip, each row's add at each step is merge-masked by its
// ROWSKIP mask; without, every term is added as in tile4x16AVX512. Each
// stored lane is one output element that sees, for p = 0, 1, …, kc−1, the
// scalar loop's multiply, round, add, round — the add dropped exactly when
// skip is on and a[r][p] is ±0 (a NaN coefficient adds).
TEXT ·tile4x16MaskAVX512(SB), NOSPLIT, $0-65
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
	MOVQ    nc+56(FP), R13
	MOVBQZX skip+64(FP), R14
	VPXORD  Z31, Z31, Z31
	MOVL    $0xffff, AX
	KMOVW   AX, K2

blockm:
	CMPQ R13, $16
	JGE  loadm
	MOVQ R13, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2 // the last, partial block: the low nc mod 16 lanes

loadm:
	VMOVUPS.Z (DI), K2, Z0
	VMOVUPS.Z (DI)(R8*1), K2, Z1
	VMOVUPS.Z (R9), K2, Z2
	VMOVUPS.Z (R9)(R8*1), K2, Z3
	MOVQ      BX, AX
	MOVQ      kc+48(FP), CX
	NEGQ      CX
	TESTQ     R14, R14
	JZ        stepm

stepskip:
	PREFETCHT0 (AX)(DX*8)
	VMOVUPS.Z  (AX), K2, Z8
	ROWSKIP(SI, Z0, Z10, Z14, K3)
	ROWSKIP(R10, Z1, Z11, Z15, K4)
	ROWSKIP(R11, Z2, Z12, Z16, K5)
	ROWSKIP(R12, Z3, Z13, Z17, K6)
	ADDQ       DX, AX
	INCQ       CX
	JNZ        stepskip
	JMP        storem

stepm:
	PREFETCHT0 (AX)(DX*8)
	VMOVUPS.Z  (AX), K2, Z8
	ROW16(SI, Z0, Z10, Z14)
	ROW16(R10, Z1, Z11, Z15)
	ROW16(R11, Z2, Z12, Z16)
	ROW16(R12, Z3, Z13, Z17)
	ADDQ       DX, AX
	INCQ       CX
	JNZ        stepm

storem:
	VMOVUPS Z0, K2, (DI)
	VMOVUPS Z1, K2, (DI)(R8*1)
	VMOVUPS Z2, K2, (R9)
	VMOVUPS Z3, K2, (R9)(R8*1)
	ADDQ    $64, DI
	ADDQ    $64, R9
	ADDQ    $64, BX
	SUBQ    $16, R13
	JG      blockm
	VZEROUPPER
	RET

// func zeroGroupsAVX512(a *float32, lda, kc, ng int) uint64
//
// Bit g of the result is set when the 4×kc block whose row r starts at
// a[(4g+r)·lda] holds a coefficient equal to zero, for g < ng, 1 ≤ ng ≤ 64.
// Per 16-column block the four rows are compared with VCMPPS EQ_OQ against
// +0 — true exactly for ±0, false for NaN: the scalar `v == 0` — and one
// KORTESTW of the or-ed masks leaves the group at its first zero block. The
// last kc mod 16 lanes of each row are loaded under the mask K2 (zeroing;
// masked-off lanes do not fault) and compared under it, so nothing at or
// past a[(4g+r)·lda+kc] is read.
TEXT ·zeroGroupsAVX512(SB), NOSPLIT, $0-40
	MOVQ   a+0(FP), SI
	MOVQ   lda+8(FP), R9
	SHLQ   $2, R9
	MOVQ   kc+16(FP), CX
	MOVQ   ng+24(FP), R13
	MOVQ   CX, DX
	ANDQ   $~15, DX // elements in whole 16-lane blocks
	ANDQ   $15, CX
	MOVL   $1, AX
	SHLL   CX, AX
	DECL   AX
	KMOVW  AX, K2   // the tail lanes; none when kc is a multiple of 16
	VPXORD Z31, Z31, Z31
	XORQ   BX, BX   // result
	XORQ   R8, R8   // g

groupz:
	LEAQ (SI)(R9*1), R10
	LEAQ (SI)(R9*2), R11
	LEAQ (R10)(R9*2), R12
	XORQ AX, AX

blockz:
	CMPQ     AX, DX
	JGE      tailz
	VCMPPS   $0, (SI)(AX*4), Z31, K1
	VCMPPS   $0, (R10)(AX*4), Z31, K3
	VCMPPS   $0, (R11)(AX*4), Z31, K4
	VCMPPS   $0, (R12)(AX*4), Z31, K5
	KORW     K1, K3, K1
	KORW     K4, K5, K4
	KORTESTW K1, K4
	JNZ      foundz
	ADDQ     $16, AX
	JMP      blockz

tailz:
	TESTQ     CX, CX
	JZ        nextz
	VMOVUPS.Z (SI)(AX*4), K2, Z0
	VMOVUPS.Z (R10)(AX*4), K2, Z1
	VMOVUPS.Z (R11)(AX*4), K2, Z2
	VMOVUPS.Z (R12)(AX*4), K2, Z3
	VCMPPS    $0, Z0, Z31, K2, K1
	VCMPPS    $0, Z1, Z31, K2, K3
	VCMPPS    $0, Z2, Z31, K2, K4
	VCMPPS    $0, Z3, Z31, K2, K5
	KORW      K1, K3, K1
	KORW      K4, K5, K4
	KORTESTW  K1, K4
	JZ        nextz

foundz:
	BTSQ R8, BX

nextz:
	LEAQ (SI)(R9*4), SI
	INCQ R8
	CMPQ R8, R13
	JLT  groupz
	MOVQ BX, ret+32(FP)
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
