package tensor

import "sync/atomic"

// flopCount accumulates the nominal FLOP count of every public matmul head
// (2·m·k·n per a[m,k]@b[k,n]-shaped product, multiply + add). "Nominal"
// means the dense count a GPU would pay and the paper's HFU arithmetic uses
// (§7): the serial kernels' zero-skips reduce executed work but not the
// counter, and internal data movement (the transposes inside TMatMul) is
// free. The counter is world-global — ranks are goroutines, so per-rank
// attribution happens at the step level via deltas (internal/metrics).
var flopCount atomic.Int64

// effFlopCount accumulates the effective (mask-aware) FLOP count: the work a
// kernel actually schedules after structural skipping. Dense matmuls add
// 2·m·k·n to both counters; the blocked attention kernels add the nominal
// count here minus the tile-skipped share via CountMatMulFLOPs. Effective is
// therefore always ≤ nominal, with equality when nothing is block-skipped.
// Value-level zero-skips inside the serial kernels are NOT subtracted: only
// tile-granular mask structure counts, so the number matches the closed-form
// prediction in metrics/xval exactly.
var effFlopCount atomic.Int64

// FLOPCount returns the total nominal matmul FLOPs issued since process
// start (or the last ResetFLOPCount).
func FLOPCount() int64 { return flopCount.Load() }

// EffectiveFLOPCount returns the total effective (mask-aware) matmul FLOPs
// issued since process start (or the last ResetFLOPCount).
func EffectiveFLOPCount() int64 { return effFlopCount.Load() }

// ResetFLOPCount zeroes both FLOP counters and returns the previous nominal
// value. Test surface: the flops and attention tests count from zero.
func ResetFLOPCount() int64 {
	effFlopCount.Store(0)
	return flopCount.Swap(0)
}

// countMatMul records one m×k×n matmul-shaped product executed densely.
func countMatMul(m, k, n int) {
	f := 2 * int64(m) * int64(k) * int64(n)
	flopCount.Add(f)
	effFlopCount.Add(f)
}

// CountMatMulFLOPs records one m×k×n matmul-shaped product whose executed
// work was reduced by structural (mask-tile) skipping: the nominal counter
// gains the full 2·m·k·n, the effective counter gains eff. It is the
// accounting hook for kernels outside this package (the blocked attention
// engine) that perform matmul-shaped sweeps themselves.
func CountMatMulFLOPs(m, k, n int, eff int64) {
	flopCount.Add(2 * int64(m) * int64(k) * int64(n))
	effFlopCount.Add(eff)
}
