//go:build amd64 && !purego

package tensor

// useAVX2 is decided once at init: the CPU reports AVX2 and the OS saves the
// YMM state. go.mod has no dependencies, so the probe is a CPUID/XGETBV stub
// in this package rather than golang.org/x/sys/cpu.
var useAVX2 = detectAVX2()

// useAVX512 selects the register-tile GEMM kernel: AVX2 as above, AVX-512F,
// and the OS saves the opmask and all 32 ZMM registers.
var useAVX512 = useAVX2 && detectAVX512()

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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
