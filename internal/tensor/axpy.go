package tensor

// axpy4 is the one fused inner loop under every GEMM and every attention
// accumulate sweep: for every j,
//
//	dst[j] += a0·b0[j]; += a1·b1[j]; += a2·b2[j]; += a3·b3[j]
//
// as four separately rounded multiply-then-add steps in that order. The
// vector kernel (axpy_amd64.s) takes the leading multiple of eight elements
// when the CPU has AVX2 and none otherwise; the scalar loop below takes the
// rest, so both builds perform the same rounding sequence per element.
func axpy4(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(dst)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n] // the vector kernel trusts n
	for j := axpy4Vec(dst, b0, b1, b2, b3, a0, a1, a2, a3); j < n; j++ {
		v := dst[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		dst[j] = v
	}
}

// axpy4Mixed is axpy4 for a group with both zero and nonzero coefficients: a
// term is skipped exactly when its coefficient is zero. The branch conditions
// are loop-invariant, so prediction is perfect.
func axpy4Mixed(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	for j := range dst {
		v := dst[j]
		if a0 != 0 {
			v += a0 * b0[j]
		}
		if a1 != 0 {
			v += a1 * b1[j]
		}
		if a2 != 0 {
			v += a2 * b2[j]
		}
		if a3 != 0 {
			v += a3 * b3[j]
		}
		dst[j] = v
	}
}

// AccumRows accumulates dst += Σ_p coef[p]·rows[p] in increasing p, where
// rows holds len(coef) contiguous rows of len(dst) elements: one separately
// rounded multiply and add per term, and a term is skipped exactly when its
// coefficient is zero (a masked probability contributes nothing, whatever the
// row holds). One output row of MatMul/TMatMul and of the blocked attention
// engine's P·V, dV and dK sweeps.
func AccumRows(dst, coef, rows []float32) { accumRows(dst, coef, rows, true) }

// accumRows is AccumRows with the zero-skip selectable: skip off multiplies
// every term, so a zero coefficient still meets a NaN or Inf in its row (the
// MatMulT dot-product semantic). Four terms are fused per sweep of dst,
// quartering its load/store traffic; fusing never reorders the adds, so the
// result is bitwise identical to one term at a time.
func accumRows(dst, coef, rows []float32, skip bool) {
	n := len(dst)
	p := 0
	for ; p+3 < len(coef); p += 4 {
		a0, a1, a2, a3 := coef[p], coef[p+1], coef[p+2], coef[p+3]
		if skip && a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0 := rows[p*n : (p+1)*n]
		b1 := rows[(p+1)*n : (p+2)*n]
		b2 := rows[(p+2)*n : (p+3)*n]
		b3 := rows[(p+3)*n : (p+4)*n]
		if !skip || (a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0) {
			axpy4(dst, b0, b1, b2, b3, a0, a1, a2, a3)
		} else {
			axpy4Mixed(dst, b0, b1, b2, b3, a0, a1, a2, a3)
		}
	}
	for ; p < len(coef); p++ {
		av := coef[p]
		if skip && av == 0 {
			continue
		}
		bp := rows[p*n : (p+1)*n]
		for j, bv := range bp {
			dst[j] += av * bv
		}
	}
}
