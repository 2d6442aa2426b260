package tensor

// axpy4 is the fused inner loop of accumRows, the per-row path AccumBlock
// takes where the register tile does not run: for every j,
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

// accumRows accumulates dst += Σ_p coef[p]·rows[p] in increasing p, where
// row p of rows starts at rows[p·ldb] and has len(dst) elements: one
// separately rounded multiply and add per term, the per-row path of the GEMM
// kernel. With skip a term is dropped exactly when its coefficient is zero
// (a masked probability contributes nothing, whatever the row holds); skip
// off multiplies every term, so a zero coefficient still meets a NaN or Inf
// in its row (the MatMulT dot-product semantic). Four terms are fused per
// sweep of dst, quartering its load/store traffic; fusing never reorders the
// adds, so the result is bitwise identical to one term at a time.
func accumRows(dst, coef, rows []float32, ldb int, skip bool) {
	n := len(dst)
	p := 0
	for ; p+3 < len(coef); p += 4 {
		a0, a1, a2, a3 := coef[p], coef[p+1], coef[p+2], coef[p+3]
		if skip && a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0 := rows[p*ldb : p*ldb+n]
		b1 := rows[(p+1)*ldb : (p+1)*ldb+n]
		b2 := rows[(p+2)*ldb : (p+2)*ldb+n]
		b3 := rows[(p+3)*ldb : (p+3)*ldb+n]
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
		bp := rows[p*ldb : p*ldb+n]
		for j, bv := range bp {
			dst[j] += av * bv
		}
	}
}
