//go:build !purego

#include "textflag.h"

// The vector exp: each float64 lane runs the runtime's own math.archExp
// ($GOROOT/src/math/exp_amd64.s, the path it takes when the CPU has FMA)
// instruction for instruction, so every lane returns math.Exp's bits. Its
// branches become per-lane masks: the finite path runs on every lane and
// the not-finite, overflow, denormal and underflow lanes are blended in
// afterwards, in an order that leaves each lane the value its branch would
// have returned. The constants are archExp's, spelled the same.
DATA expconst<>+0(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA expconst<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA expconst<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expconst<>+24(SB)/8, $0.0625
DATA expconst<>+32(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+40(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+48(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+56(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+64(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+72(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+80(SB)/8, $0.5
DATA expconst<>+88(SB)/8, $1.0
DATA expconst<>+96(SB)/8, $2.0
DATA expconst<>+104(SB)/8, $7.09782712893384e+02 // Overflow
DATA expconst<>+112(SB)/8, $0x7FF0000000000000 // +Inf
DATA expconst<>+120(SB)/8, $0x0010000000000000 // 2^-1022: the denormal step's second factor
DATA expconst<>+128(SB)/8, $0x3FF
DATA expconst<>+136(SB)/8, $0x3FE
DATA expconst<>+144(SB)/8, $-52
DATA expconst<>+152(SB)/8, $0x7FF
DATA expconst<>+160(SB)/8, $-0x8000000000000000 // the float64 sign bit
GLOBL expconst<>(SB), RODATA, $168

// The constants broadcast once per call: Z16–Z31 the float64 ones, Z8–Z11
// and Z13 the int64 ones, Z12 zero (int64 0 and float64 +0).
#define EXPCONST \
	VBROADCASTSD expconst<>+0(SB), Z16;   \
	VBROADCASTSD expconst<>+8(SB), Z17;   \
	VBROADCASTSD expconst<>+16(SB), Z18;  \
	VBROADCASTSD expconst<>+24(SB), Z19;  \
	VBROADCASTSD expconst<>+32(SB), Z20;  \
	VBROADCASTSD expconst<>+40(SB), Z21;  \
	VBROADCASTSD expconst<>+48(SB), Z22;  \
	VBROADCASTSD expconst<>+56(SB), Z23;  \
	VBROADCASTSD expconst<>+64(SB), Z24;  \
	VBROADCASTSD expconst<>+72(SB), Z25;  \
	VBROADCASTSD expconst<>+80(SB), Z26;  \
	VBROADCASTSD expconst<>+88(SB), Z27;  \
	VBROADCASTSD expconst<>+96(SB), Z28;  \
	VBROADCASTSD expconst<>+104(SB), Z29; \
	VBROADCASTSD expconst<>+112(SB), Z30; \
	VBROADCASTSD expconst<>+120(SB), Z31; \
	VPBROADCASTQ expconst<>+128(SB), Z8;  \
	VPBROADCASTQ expconst<>+136(SB), Z9;  \
	VPBROADCASTQ expconst<>+144(SB), Z10; \
	VPBROADCASTQ expconst<>+152(SB), Z11; \
	VPBROADCASTQ expconst<>+160(SB), Z13; \
	VPXORQ       Z12, Z12, Z12

// Z0 = exp(Z0) in eight float64 lanes; clobbers Z1, Z2, Y4, Z5–Z7, K1–K5.
//
// The masks: K1 x > Overflow (ordered, so not NaN) and K2 x NaN, the
// scalar's two tests before the finite path. The finite path is archExp's:
// LOG2E·x, VCVTPD2DQ (nearest even, like CVTSD2SL, and 0x80000000 for
// ±Inf, NaN and anything out of int32 range) and back, the two fused LN2U
// and LN2L reductions, ×0.0625, the seven-step FMA Horner chain, the four
// "+2, multiply" squarings with the last multiply fused with the +1. The
// ldexp runs in int64 lanes (exact: the exponent is at most 1024 and at
// least −2³¹, so the scalar's 32-bit adds never wrap): BX = e + 0x3FF;
// K3 BX ≤ 0 takes the denormal step (BX + 0x3FE, then a second multiply by
// 2^-1022), K4 BX < −52 underflows to +0, K5 BX ≥ 0x7FF overflows to +Inf.
// The blends run +0, then +Inf (K1 or K5: a finite x past Overflow has the
// 0x80000000 exponent of an underflow), then x itself on NaN lanes (+Inf
// already holds +Inf; −Inf has underflowed to +0, the scalar's result).
#define EXP8 \
	VMOVAPD      Z0, Z7;             \
	VCMPPD       $0x1e, Z29, Z0, K1; \
	VCMPPD       $3, Z0, Z0, K2;     \
	VMULPD       Z16, Z0, Z1;        \
	VCVTPD2DQ    Z1, Y4;             \
	VCVTDQ2PD    Y4, Z1;             \
	VFNMADD231PD Z17, Z1, Z0;        \
	VFNMADD231PD Z18, Z1, Z0;        \
	VMULPD       Z19, Z0, Z0;        \
	VMOVAPD      Z20, Z2;            \
	VFMADD213PD  Z21, Z0, Z2;        \
	VFMADD213PD  Z22, Z0, Z2;        \
	VFMADD213PD  Z23, Z0, Z2;        \
	VFMADD213PD  Z24, Z0, Z2;        \
	VFMADD213PD  Z25, Z0, Z2;        \
	VFMADD213PD  Z26, Z0, Z2;        \
	VFMADD213PD  Z27, Z0, Z2;        \
	VMULPD       Z2, Z0, Z0;         \
	VADDPD       Z28, Z0, Z2;        \
	VMULPD       Z2, Z0, Z0;         \
	VADDPD       Z28, Z0, Z2;        \
	VMULPD       Z2, Z0, Z0;         \
	VADDPD       Z28, Z0, Z2;        \
	VMULPD       Z2, Z0, Z0;         \
	VADDPD       Z28, Z0, Z2;        \
	VFMADD213PD  Z27, Z2, Z0;        \
	VPMOVSXDQ    Y4, Z5;             \
	VPADDQ       Z8, Z5, Z5;         \
	VPCMPQ       $2, Z12, Z5, K3;    \
	VPCMPQ       $1, Z10, Z5, K4;    \
	VPCMPQ       $5, Z11, Z5, K5;    \
	VPADDQ       Z9, Z5, K3, Z5;     \
	VPSLLQ       $52, Z5, Z6;        \
	VMULPD       Z6, Z0, Z0;         \
	VMULPD       Z31, Z0, K3, Z0;    \
	VMOVAPD      Z12, K4, Z0;        \
	KORW         K1, K5, K5;         \
	VMOVAPD      Z30, K5, Z0;        \
	VMOVAPD      Z7, K2, Z0

// TAILMASK leaves CX = n − AX (n in R8), the elements left from AX, and when
// fewer than eight are left sets K6 to their low lanes and jumps to tail: the
// last, partial block loads and stores under K6 on Z registers (AVX-512F
// alone), so no lane at or past n is read or written, and a zeroed lane's
// result is discarded. Whole blocks keep plain YMM loads and stores: a
// 64-byte masked access splits a cache line almost always. Clobbers DX.
#define TAILMASK(tail) \
	MOVQ  R8, CX;    \
	SUBQ  AX, CX;    \
	CMPQ  CX, $8;    \
	JGE   6(PC);     \
	MOVL  $1, DX;    \
	SHLL  CX, DX;    \
	DECL  DX;        \
	KMOVW DX, K6;    \
	JMP   tail

// func expShiftAVX512(x *float32, n int, shift float32)
//
// x[j] = float32(exp(float64(x[j] − shift))) for j in [0, n), n ≥ 1, eight
// lanes a block and the last n mod 8 elements as a masked block: the float32
// subtract (VSUBPS), the exact widening (VCVTPS2PD, like CVTSS2SD), EXP8, and
// the narrowing (VCVTPD2PS, nearest even like CVTSD2SS) — the scalar
// expression's operations, lane by lane.
TEXT ·expShiftAVX512(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), R8
	VBROADCASTSS shift+16(FP), Y15
	EXPCONST
	XORQ         AX, AX

expLoop:
	TAILMASK(expTail)
	VMOVUPS (DI)(AX*4), Y0
	JMP     expBody

expTail:
	VMOVUPS.Z (DI)(AX*4), K6, Z0

expBody:
	VSUBPS    Y15, Y0, Y0
	VCVTPS2PD Y0, Z0
	EXP8
	VCVTPD2PS Z0, Y0
	CMPQ      CX, $8
	JLT       expStoreTail
	VMOVUPS   Y0, (DI)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, R8
	JLT       expLoop
	VZEROUPPER
	RET

expStoreTail:
	VMOVUPS Z0, K6, (DI)(AX*4)
	VZEROUPPER
	RET

// func sigmoidAVX512(dst, src *float32, n int)
//
// dst[j] = float32(1 / (1 + exp(−float64(src[j])))) for j in [0, n), n ≥ 1,
// blocked like expShiftAVX512: the widening, the sign flip, EXP8, then one
// rounded VADDPD and one rounded VDIVPD, as the scalar ADDSD and DIVSD.
TEXT ·sigmoidAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R8
	EXPCONST
	XORQ AX, AX

sigmoidLoop:
	TAILMASK(sigmoidTail)
	VMOVUPS (SI)(AX*4), Y0
	JMP     sigmoidBody

sigmoidTail:
	VMOVUPS.Z (SI)(AX*4), K6, Z0

sigmoidBody:
	VCVTPS2PD Y0, Z0
	VPXORQ    Z13, Z0, Z0
	EXP8
	VADDPD    Z27, Z0, Z0
	VDIVPD    Z0, Z27, Z0
	VCVTPD2PS Z0, Y0
	CMPQ      CX, $8
	JLT       sigmoidStoreTail
	VMOVUPS   Y0, (DI)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, R8
	JLT       sigmoidLoop
	VZEROUPPER
	RET

sigmoidStoreTail:
	VMOVUPS Z0, K6, (DI)(AX*4)
	VZEROUPPER
	RET

// func exp64AVX512(dst, src *float64, n int)
//
// dst[j] = exp(src[j]) for j in [0, n), n a positive multiple of 8: EXP8
// alone, so its float64 results can be compared with math.Exp's before any
// narrowing.
TEXT ·exp64AVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	EXPCONST
	XORQ AX, AX

exp64Loop:
	VMOVUPD (SI)(AX*8), Z0
	EXP8
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     exp64Loop
	VZEROUPPER
	RET
