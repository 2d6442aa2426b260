//go:build amd64 && !purego

package tensor

// useAVX2 is decided once at init: the CPU reports AVX2 and the OS saves the
// YMM state. go.mod has no dependencies, so the probe is a CPUID/XGETBV stub
// in this package rather than golang.org/x/sys/cpu.
var useAVX2 = detectAVX2()

// useAVX512 selects the register-tile GEMM kernel: AVX2 as above, AVX-512F,
// and the OS saves the opmask and all 32 ZMM registers.
var useAVX512 = useAVX2 && detectAVX512()

// useVecExp selects the vector exp (exp_amd64.s): the register tile's
// AVX-512, plus FMA with the AVX state enabled — the predicate under which
// math.Exp itself takes its FMA path, the one the kernel's lanes reproduce.
var useVecExp = useAVX512 && detectFMA()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func detectFMA() bool {
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	lo, _ := xgetbv()
	return lo&6 == 6
}

func detectAVX512() bool {
	if lo, _ := xgetbv(); lo&0xe6 != 0xe6 { // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<16) != 0
}

// axpy4Vec runs the vector kernel over the leading multiple of eight
// elements and returns how many it covered; the slices all have len(dst).
func axpy4Vec(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) int {
	n := len(dst) &^ 7
	if n == 0 || !useAVX2 {
		return 0
	}
	axpy4AVX2(&dst[0], &b0[0], &b1[0], &b2[0], &b3[0], n, a0, a1, a2, a3)
	return n
}

//go:noescape
func axpy4AVX2(dst, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

// tile4x32AVX512 accumulates dst[r][j] += a[r][p]·b[p][j] for rows r < 4,
// p < kc in increasing order, and j < nc: row r of dst starts at dst+r·ldd,
// of a at a+r·lda, of b at b+p·ldb (strides in elements). kc ≥ 1; nc is a
// positive multiple of 32.
//
//go:noescape
func tile4x32AVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc, nc int)

// tile4x16AVX512 is tile4x32AVX512 on one block of 16 columns.
//
//go:noescape
func tile4x16AVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc int)

// tile4x32MaskAVX512 is tile4x32AVX512 with the zero skip: row r's term at
// step p is dropped exactly when a[r][p] is ±0. nc is a positive multiple
// of 32.
//
//go:noescape
func tile4x32MaskAVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc, nc int)

// tile4x16MaskAVX512 is tile4x16AVX512 under the AVX-512 opmask, over nc ≥ 1
// columns in blocks of 16, the last block masked to the low nc mod 16 lanes:
// nothing at or past column nc of a dst or b row is read or written. With
// skip, a row's term at step p is dropped exactly when a[r][p] is ±0.
//
//go:noescape
func tile4x16MaskAVX512(dst *float32, ldd int, a *float32, lda int, b *float32, ldb, kc, nc int, skip bool)

// zeroGroupsAVX512 returns the set of g < ng (1 ≤ ng ≤ 64) whose 4×kc block,
// row r at a+(4g+r)·lda, holds a ±0: bit g set when it does.
//
//go:noescape
func zeroGroupsAVX512(a *float32, lda, kc, ng int) uint64

// expShiftVec runs the vector exp over all of x, the last len(x) mod 8
// elements as a masked block, and returns how many it covered: len(x), or
// 0 without the vector exp.
func expShiftVec(x []float32, shift float32) int {
	if len(x) == 0 || !useVecExp {
		return 0
	}
	expShiftAVX512(&x[0], len(x), shift)
	return len(x)
}

// sigmoidVec is expShiftVec for Sigmoid; len(dst) == len(src).
func sigmoidVec(dst, src []float32) int {
	if len(src) == 0 || !useVecExp {
		return 0
	}
	sigmoidAVX512(&dst[0], &src[0], len(src))
	return len(src)
}

//go:noescape
func expShiftAVX512(x *float32, n int, shift float32)

//go:noescape
func sigmoidAVX512(dst, src *float32, n int)

// exp64AVX512 is the vector exp on float64 lanes, dst[j] = exp(src[j]) for
// j < n, n a positive multiple of 8: what the tests compare with math.Exp
// before narrowing.
//
//go:noescape
func exp64AVX512(dst, src *float64, n int)

// scaleMaxVec runs ScaleMax's lanes over the leading multiple of sixteen
// elements of x and returns how many it covered and their max from m.
func scaleMaxVec(x []float32, scale, m float32) (int, float32) {
	n := len(x) &^ 15
	if n == 0 || !useAVX512 {
		return 0, m
	}
	return n, scaleMaxAVX512(&x[0], n, scale, m)
}

// maxVec is scaleMaxVec for rowMax: x is only read.
func maxVec(x []float32, m float32) (int, float32) {
	n := len(x) &^ 15
	if n == 0 || !useAVX512 {
		return 0, m
	}
	return n, maxAVX512(&x[0], n, m)
}

// scaleVec runs ScaleRow's lanes over the leading multiple of sixteen
// elements and returns how many it covered.
func scaleVec(x []float32, a float32) int {
	n := len(x) &^ 15
	if n == 0 || !useAVX512 {
		return 0
	}
	scaleAVX512(&x[0], n, a)
	return n
}

// softmaxGradVec is scaleVec for SoftmaxGradRow; len(p) == len(ds).
func softmaxGradVec(ds, p []float32, dot float32) int {
	n := len(ds) &^ 15
	if n == 0 || !useAVX512 {
		return 0
	}
	softmaxGradAVX512(&ds[0], &p[0], n, dot)
	return n
}

// sumRows8Vec runs SumRows8's row lanes over the leading multiple of eight
// columns and returns how many it covered; x holds 7·ld+n elements.
func sumRows8Vec(acc *[8]float32, x []float32, ld, n int) int {
	n &^= 7
	if n == 0 || !useAVX2 {
		return 0
	}
	sumRows8AVX(acc, &x[0], ld, n)
	return n
}

// dotRows8Vec is sumRows8Vec for DotRows8.
func dotRows8Vec(acc *[8]float32, a []float32, lda int, b []float32, ldb, n int) int {
	n &^= 7
	if n == 0 || !useAVX2 {
		return 0
	}
	dotRows8AVX(acc, &a[0], lda, &b[0], ldb, n)
	return n
}

//go:noescape
func scaleMaxAVX512(x *float32, n int, scale, m float32) float32

//go:noescape
func maxAVX512(x *float32, n int, m float32) float32

//go:noescape
func scaleAVX512(x *float32, n int, a float32)

//go:noescape
func softmaxGradAVX512(ds, p *float32, n int, dot float32)

//go:noescape
func sumRows8AVX(acc *[8]float32, x *float32, ld, n int)

//go:noescape
func dotRows8AVX(acc *[8]float32, a *float32, lda int, b *float32, ldb, n int)

// transpose16AVX writes dst[j·ldd+i] = src[i·lds+j] for i < 16 and j < n,
// n a positive multiple of 8 (strides in elements): the in-register 16-row
// panels under TransposeBlock.
//
//go:noescape
func transpose16AVX(dst *float32, ldd int, src *float32, lds int, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
