//go:build !purego

#include "textflag.h"

// Four rows of an 8×8 transpose from A..D, which hold four source columns
// of rows k (low 128-bit lane) and k+4 (high lane) for k = 0..3: unpack
// pairs of rows, then shuffle pairs of pairs, both in-lane, and A..D hold
// those four columns across all eight rows — four rows of the destination.
#define HALF(A, B, C, D, T0, T1, T2, T3) \
	VUNPCKLPS B, A, T0;         \
	VUNPCKHPS B, A, T1;         \
	VUNPCKLPS D, C, T2;         \
	VUNPCKHPS D, C, T3;         \
	VSHUFPS   $0x44, T2, T0, A; \
	VSHUFPS   $0xEE, T2, T0, B; \
	VSHUFPS   $0x44, T3, T1, C; \
	VSHUFPS   $0xEE, T3, T1, D

// One 8×8 block: source rows 0..3 from S0 and 4..7 from S4 (row k at
// +k·lds; R8 = lds, R9 = 3·lds in bytes) into destination rows 0..3 at
// BX+OFF and 4..7 at R13+OFF (R11 = ldd, R12 = 3·ldd in bytes). Eight
// 128-bit loads, eight inserts into the high lanes (so the cross-lane step
// of the transpose happens in the loads), sixteen in-lane shuffles and
// eight 256-bit stores.
#define BLOCK8(S0, S4, OFF) \
	VMOVUPS     (S0), X0;                     \
	VINSERTF128 $1, (S4), Y0, Y0;             \
	VMOVUPS     (S0)(R8*1), X1;               \
	VINSERTF128 $1, (S4)(R8*1), Y1, Y1;       \
	VMOVUPS     (S0)(R8*2), X2;               \
	VINSERTF128 $1, (S4)(R8*2), Y2, Y2;       \
	VMOVUPS     (S0)(R9*1), X3;               \
	VINSERTF128 $1, (S4)(R9*1), Y3, Y3;       \
	VMOVUPS     16(S0), X4;                   \
	VINSERTF128 $1, 16(S4), Y4, Y4;           \
	VMOVUPS     16(S0)(R8*1), X5;             \
	VINSERTF128 $1, 16(S4)(R8*1), Y5, Y5;     \
	VMOVUPS     16(S0)(R8*2), X6;             \
	VINSERTF128 $1, 16(S4)(R8*2), Y6, Y6;     \
	VMOVUPS     16(S0)(R9*1), X7;             \
	VINSERTF128 $1, 16(S4)(R9*1), Y7, Y7;     \
	HALF(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11);   \
	HALF(Y4, Y5, Y6, Y7, Y12, Y13, Y14, Y15); \
	VMOVUPS     Y0, OFF(BX);                  \
	VMOVUPS     Y1, OFF(BX)(R11*1);           \
	VMOVUPS     Y2, OFF(BX)(R11*2);           \
	VMOVUPS     Y3, OFF(BX)(R12*1);           \
	VMOVUPS     Y4, OFF(R13);                 \
	VMOVUPS     Y5, OFF(R13)(R11*1);          \
	VMOVUPS     Y6, OFF(R13)(R11*2);          \
	VMOVUPS     Y7, OFF(R13)(R12*1)

// func transpose16AVX(dst *float32, ldd int, src *float32, lds int, n int)
//
// dst[j·ldd+i] = src[i·lds+j] for i < 16 and j < n, n a positive multiple
// of 8 (strides in elements): a 16-row panel of src becomes a 16-column
// panel of dst, eight columns at a time from left to right, each step two
// 8×8 blocks stacked so every destination row gets 64 contiguous bytes and
// the sixteen source rows are read as sequential streams. A pure
// permutation of 32-bit words: nothing is computed, so every bit pattern,
// NaN payloads included, arrives unchanged. Nothing outside the two panels
// is read or written.
TEXT ·transpose16AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), BX
	MOVQ ldd+8(FP), R11
	SHLQ $2, R11
	MOVQ src+16(FP), AX
	MOVQ lds+24(FP), R8
	SHLQ $2, R8
	MOVQ n+32(FP), DX
	LEAQ (R8)(R8*2), R9    // 3·lds bytes
	LEAQ (R11)(R11*2), R12 // 3·ldd bytes
	LEAQ (AX)(R8*4), R10   // source row 4
	LEAQ (R10)(R8*4), SI   // source row 8
	LEAQ (SI)(R8*4), DI    // source row 12

strip:
	LEAQ   (BX)(R11*4), R13 // destination row 4 of the strip
	BLOCK8(AX, R10, 0)
	BLOCK8(SI, DI, 32)
	ADDQ   $32, AX
	ADDQ   $32, R10
	ADDQ   $32, SI
	ADDQ   $32, DI
	LEAQ   (BX)(R11*8), BX
	SUBQ   $8, DX
	JNZ    strip

	VZEROUPPER
	RET
