//go:build amd64 && !purego

package tensor

// useAVX2 is decided once at init: the CPU reports AVX2 and the OS saves the
// YMM state. go.mod has no dependencies, so the probe is a CPUID/XGETBV stub
// in this package rather than golang.org/x/sys/cpu.
var useAVX2 = detectAVX2()

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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
