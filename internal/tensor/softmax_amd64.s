//go:build !purego

#include "textflag.h"

// The softmax sweeps' kernels. In the elementwise ones each lane is one
// element and runs the scalar loop's operations on it in the same order,
// one separately rounded instruction per operation and never a fused
// multiply-add, so every element gets the scalar loop's bits; n is a
// positive multiple of 16. The first source of every commutative operation
// is the element (or the accumulator), as in the compiled scalar loop.
// Nothing at or past element n of a row is read or written.

// HMAX folds the sixteen lanes of Z1 into the low lane of X1 with the same
// `a > b ? a : b` as the lanes, using Z3 as scratch. The lanes' maxima hold
// the scan's value; which signed zero wins a ±0 tie is fixed by the caller.
#define HMAX \
	VEXTRACTF64X4 $1, Z1, Y3; \
	VMAXPS        Y3, Y1, Y1; \
	VEXTRACTF128  $1, Y1, X3; \
	VMAXPS        X3, X1, X1; \
	VPERMILPS     $0x4e, X1, X3; \
	VMAXPS        X3, X1, X1; \
	VPERMILPS     $0xb1, X1, X3; \
	VMAXPS        X3, X1, X1

// func scaleMaxAVX512(x *float32, n int, scale, m float32) float32
//
// x[j] *= scale for j < n, and the max of m and every product under the
// scalar `if x[j] > acc { acc = x[j] }`: each lane starts at m and keeps its
// accumulator unless the product is greater, so a NaN never wins and an
// equal value keeps the accumulator. VMAXPS returns its first source when
// that is greater and its second otherwise (NaN or equal included); Go
// operand order lists the second source first.
TEXT ·scaleMaxAVX512(SB), NOSPLIT, $0-28
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS scale+16(FP), Z2
	VBROADCASTSS m+20(FP), Z1
	XORQ         AX, AX

scalemaxloop:
	VMOVUPS (DI)(AX*4), Z0
	VMULPS  Z2, Z0, Z0     // x·scale
	VMOVUPS Z0, (DI)(AX*4)
	VMAXPS  Z1, Z0, Z1     // x > acc ? x : acc
	ADDQ    $16, AX
	CMPQ    AX, CX
	JLT     scalemaxloop

	HMAX
	MOVSS X1, ret+24(FP)
	VZEROUPPER
	RET

// func maxAVX512(x *float32, n int, m float32) float32
//
// scaleMaxAVX512 without the scaling: x is only read.
TEXT ·maxAVX512(SB), NOSPLIT, $0-28
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS m+16(FP), Z1
	XORQ         AX, AX

maxloop:
	VMOVUPS (DI)(AX*4), Z0
	VMAXPS  Z1, Z0, Z1     // x > acc ? x : acc
	ADDQ    $16, AX
	CMPQ    AX, CX
	JLT     maxloop

	HMAX
	MOVSS X1, ret+24(FP)
	VZEROUPPER
	RET

// func scaleAVX512(x *float32, n int, a float32)
//
// x[j] *= a for j < n.
TEXT ·scaleAVX512(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS a+16(FP), Z2
	XORQ         AX, AX

scaleloop:
	VMOVUPS (DI)(AX*4), Z0
	VMULPS  Z2, Z0, Z0     // x·a
	VMOVUPS Z0, (DI)(AX*4)
	ADDQ    $16, AX
	CMPQ    AX, CX
	JLT     scaleloop

	VZEROUPPER
	RET

// func softmaxGradAVX512(ds, p *float32, n int, dot float32)
//
// ds[j] = p[j]·(ds[j] − dot) for j < n: the subtraction, then the product.
TEXT ·softmaxGradAVX512(SB), NOSPLIT, $0-28
	MOVQ         ds+0(FP), DI
	MOVQ         p+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS dot+24(FP), Z2
	XORQ         AX, AX

gradloop:
	VMOVUPS (DI)(AX*4), Z0
	VSUBPS  Z2, Z0, Z0     // dP − dot
	VMOVUPS (SI)(AX*4), Z1
	VMULPS  Z0, Z1, Z0     // p·(dP − dot)
	VMOVUPS Z0, (DI)(AX*4)
	ADDQ    $16, AX
	CMPQ    AX, CX
	JLT     gradloop

	VZEROUPPER
	RET

// The row chains: eight rows' sums, one row a lane. Each block of eight
// columns is loaded as eight row vectors (the products, for a dot) in
// Y0–Y7, turned into eight column vectors by an in-register 8×8 transpose,
// and the column vectors are added to the accumulator Y15 in increasing
// column order, so lane r adds row r's elements one at a time in
// increasing j: the single-row chain, eight rows in flight. The first stage
// interleaves row pairs (Y8–Y11 rows 0–3, Y0–Y3 rows 4–7: r0[0] r1[0]
// r0[1] r1[1] | r0[4] …); the second gathers rows 0–3 of columns c | c+4
// in Y4–Y7 and rows 4–7 in Y8–Y11; the third joins the halves into column
// c (VPERM2F128 $0x20) and column c+4 ($0x31), each added as it is made.
#define TRANSPOSE8ADD \
	VUNPCKLPS  Y1, Y0, Y8;          \
	VUNPCKHPS  Y1, Y0, Y9;          \
	VUNPCKLPS  Y3, Y2, Y10;         \
	VUNPCKHPS  Y3, Y2, Y11;         \
	VUNPCKLPS  Y5, Y4, Y0;          \
	VUNPCKHPS  Y5, Y4, Y1;          \
	VUNPCKLPS  Y7, Y6, Y2;          \
	VUNPCKHPS  Y7, Y6, Y3;          \
	VSHUFPS    $0x44, Y10, Y8, Y4;  \
	VSHUFPS    $0xee, Y10, Y8, Y5;  \
	VSHUFPS    $0x44, Y11, Y9, Y6;  \
	VSHUFPS    $0xee, Y11, Y9, Y7;  \
	VSHUFPS    $0x44, Y2, Y0, Y8;   \
	VSHUFPS    $0xee, Y2, Y0, Y9;   \
	VSHUFPS    $0x44, Y3, Y1, Y10;  \
	VSHUFPS    $0xee, Y3, Y1, Y11;  \
	VPERM2F128 $0x20, Y8, Y4, Y12;  \
	VADDPS     Y12, Y15, Y15;       \
	VPERM2F128 $0x20, Y9, Y5, Y13;  \
	VADDPS     Y13, Y15, Y15;       \
	VPERM2F128 $0x20, Y10, Y6, Y14; \
	VADDPS     Y14, Y15, Y15;       \
	VPERM2F128 $0x20, Y11, Y7, Y12; \
	VADDPS     Y12, Y15, Y15;       \
	VPERM2F128 $0x31, Y8, Y4, Y13;  \
	VADDPS     Y13, Y15, Y15;       \
	VPERM2F128 $0x31, Y9, Y5, Y14;  \
	VADDPS     Y14, Y15, Y15;       \
	VPERM2F128 $0x31, Y10, Y6, Y12; \
	VADDPS     Y12, Y15, Y15;       \
	VPERM2F128 $0x31, Y11, Y7, Y13; \
	VADDPS     Y13, Y15, Y15

// func sumRows8AVX(acc *[8]float32, x *float32, ld, n int)
//
// acc[r] += x[r·ld+j], j < n in increasing order, for r < 8; ld in
// elements, n a positive multiple of 8. Rows 0–3 are read from SI, rows 4–7
// from R10 = SI + 4·ld.
TEXT ·sumRows8AVX(SB), NOSPLIT, $0-32
	MOVQ    acc+0(FP), AX
	MOVQ    x+8(FP), SI
	MOVQ    ld+16(FP), R8
	MOVQ    n+24(FP), CX
	SHLQ    $2, R8
	LEAQ    (R8)(R8*2), R9
	LEAQ    (SI)(R8*4), R10
	VMOVUPS (AX), Y15

sumloop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R8*1), Y1
	VMOVUPS (SI)(R8*2), Y2
	VMOVUPS (SI)(R9*1), Y3
	VMOVUPS (R10), Y4
	VMOVUPS (R10)(R8*1), Y5
	VMOVUPS (R10)(R8*2), Y6
	VMOVUPS (R10)(R9*1), Y7
	TRANSPOSE8ADD
	ADDQ    $32, SI
	ADDQ    $32, R10
	SUBQ    $8, CX
	JNZ     sumloop

	VMOVUPS Y15, (AX)
	VZEROUPPER
	RET

// func dotRows8AVX(acc *[8]float32, a *float32, lda int, b *float32, ldb, n int)
//
// acc[r] += a[r·lda+j]·b[r·ldb+j], j < n in increasing order, for r < 8:
// each product rounded by VMULPS before its add. n a positive multiple of
// 8; a's rows 4–7 are read from R10, b's from R11.
TEXT ·dotRows8AVX(SB), NOSPLIT, $0-48
	MOVQ    acc+0(FP), AX
	MOVQ    a+8(FP), SI
	MOVQ    lda+16(FP), R8
	MOVQ    b+24(FP), DI
	MOVQ    ldb+32(FP), R12
	MOVQ    n+40(FP), CX
	SHLQ    $2, R8
	SHLQ    $2, R12
	LEAQ    (R8)(R8*2), R9
	LEAQ    (R12)(R12*2), R13
	LEAQ    (SI)(R8*4), R10
	LEAQ    (DI)(R12*4), R11
	VMOVUPS (AX), Y15

dotloop:
	VMOVUPS (SI), Y0
	VMULPS  (DI), Y0, Y0
	VMOVUPS (SI)(R8*1), Y1
	VMULPS  (DI)(R12*1), Y1, Y1
	VMOVUPS (SI)(R8*2), Y2
	VMULPS  (DI)(R12*2), Y2, Y2
	VMOVUPS (SI)(R9*1), Y3
	VMULPS  (DI)(R13*1), Y3, Y3
	VMOVUPS (R10), Y4
	VMULPS  (R11), Y4, Y4
	VMOVUPS (R10)(R8*1), Y5
	VMULPS  (R11)(R12*1), Y5, Y5
	VMOVUPS (R10)(R8*2), Y6
	VMULPS  (R11)(R12*2), Y6, Y6
	VMOVUPS (R10)(R9*1), Y7
	VMULPS  (R11)(R13*1), Y7, Y7
	TRANSPOSE8ADD
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R10
	ADDQ    $32, R11
	SUBQ    $8, CX
	JNZ     dotloop

	VMOVUPS Y15, (AX)
	VZEROUPPER
	RET
