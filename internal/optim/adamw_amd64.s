//go:build !purego

#include "textflag.h"

// func adamwAVX512(w, grad, m, v *float32, n int, b1, c1, b2, c2, bc1, bc2, eps, wd, lr float32)
//
// One AdamW step on elements [0, n), n a positive multiple of 16, sixteen
// lanes per iteration. Each lane is one element and runs AdamW.update's
// scalar loop, one separately rounded instruction per operation, never a
// fused multiply-add:
//
//	m = (1−β1)·g + β1·m
//	v = g·((1−β2)·g) + β2·v
//	s = float32(sqrt(float64(v/bc2)))
//	w = w − (wd·w + (m/bc1)/(s + eps))·lr
//
// The divides are true VDIVPS, never a reciprocal multiply. The square root
// is VSQRTPS, the instruction the compiler already emits for the scalar
// float32(math.Sqrt(float64(x))): a correctly rounded float32 square root
// equals the float64 one narrowed, because 53 ≥ 2·24+2 bits make the double
// rounding innocuous, and TestSqrtExhaustive checks it on all 2³² inputs.
// The first source of every commutative operation is the one the compiled
// scalar loop uses, so where both operands are NaN the lane keeps the NaN
// the scalar loop keeps (the contract is NaN-ness; today the payloads agree
// too). w, m and v are read and written in place, g only read; nothing at or
// past element n is touched.
TEXT ·adamwAVX512(SB), NOSPLIT, $0-76
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	VBROADCASTSS b1+40(FP), Z16
	VBROADCASTSS c1+44(FP), Z17
	VBROADCASTSS b2+48(FP), Z18
	VBROADCASTSS c2+52(FP), Z19
	VBROADCASTSS bc1+56(FP), Z20
	VBROADCASTSS bc2+60(FP), Z21
	VBROADCASTSS eps+64(FP), Z22
	VBROADCASTSS wd+68(FP), Z23
	VBROADCASTSS lr+72(FP), Z24
	XORQ         AX, AX

loop:
	VMOVUPS (SI)(AX*4), Z0 // g
	VMOVUPS (R8)(AX*4), Z1 // m
	VMOVUPS (R9)(AX*4), Z2 // v
	VMOVUPS (DI)(AX*4), Z3 // w

	VMULPS  Z16, Z1, Z1 // β1·m
	VMULPS  Z0, Z17, Z4 // (1−β1)·g
	VADDPS  Z1, Z4, Z1  // m
	VMOVUPS Z1, (R8)(AX*4)

	VMULPS  Z18, Z2, Z2 // β2·v
	VMULPS  Z0, Z19, Z5 // (1−β2)·g
	VMULPS  Z5, Z0, Z5  // g·((1−β2)·g)
	VADDPS  Z2, Z5, Z2  // v
	VMOVUPS Z2, (R9)(AX*4)

	VDIVPS Z20, Z1, Z1 // m/bc1
	VDIVPS Z21, Z2, Z2 // v/bc2

	VSQRTPS Z2, Z2 // s

	VADDPS  Z22, Z2, Z2 // s + eps
	VDIVPS  Z2, Z1, Z1  // (m/bc1)/(s + eps)
	VMULPS  Z3, Z23, Z4 // wd·w
	VADDPS  Z1, Z4, Z4  // wd·w + …
	VMULPS  Z24, Z4, Z4 // ·lr
	VSUBPS  Z4, Z3, Z3  // w − …
	VMOVUPS Z3, (DI)(AX*4)

	ADDQ $16, AX
	CMPQ AX, CX
	JLT  loop

	VZEROUPPER
	RET

// func sqrt32AVX512(dst, src *float32, n int)
//
// dst[j] = VSQRTPS(src[j]) for j < n, n a positive multiple of 16: the
// kernel's square root alone, what the tests compare with math.Sqrt.
TEXT ·sqrt32AVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

sqrtloop:
	VSQRTPS (SI)(AX*4), Z0
	VMOVUPS Z0, (DI)(AX*4)
	ADDQ    $16, AX
	CMPQ    AX, CX
	JLT     sqrtloop

	VZEROUPPER
	RET
