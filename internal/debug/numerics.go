package debug

import (
	"math"
	"sort"

	"llama4d/internal/bf16"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
)

// AccumulationStudy quantifies the §6.2 precision ladder on a synthetic
// gradient reduction of n terms: exact (float64), FP32 accumulation in a
// given chunk order, and BF16 accumulation. Returned errors are relative to
// the exact sum.
type AccumulationStudy struct {
	N         int
	FP32Err   float64 // FP32 accumulation error
	BF16Err   float64 // BF16 accumulator error
	OrderGap  float64 // max pairwise gap between FP32 chunk orders
	ChunkErrs map[int]float64
}

// RunAccumulationStudy sums the same pseudo-gradient values under different
// precisions and chunkings.
func RunAccumulationStudy(values []float32, chunkings []int) AccumulationStudy {
	var exact float64
	for _, v := range values {
		exact += float64(v)
	}
	study := AccumulationStudy{N: len(values), ChunkErrs: make(map[int]float64)}
	rel := func(x float32) float64 {
		return math.Abs(float64(x)-exact) / math.Max(math.Abs(exact), 1e-30)
	}
	study.FP32Err = rel(bf16.SumChunked(values, 1))
	study.BF16Err = rel(bf16.SumBF16(values))
	var sums []float32
	for _, n := range chunkings {
		s := bf16.SumChunked(values, n)
		study.ChunkErrs[n] = rel(s)
		sums = append(sums, s)
	}
	for i := range sums {
		for j := i + 1; j < len(sums); j++ {
			gap := math.Abs(float64(sums[i]) - float64(sums[j]))
			if gap > study.OrderGap {
				study.OrderGap = gap
			}
		}
	}
	return study
}

// BufferSensitivity measures how much a parameter's gradient degrades when
// its micro-batch accumulation runs through a BF16 buffer instead of FP32.
type BufferSensitivity struct {
	Name   string
	RelErr float64
}

// CriticalBuffers runs nmb micro-batch backwards twice — once accumulating
// gradients in FP32 (the production policy) and once rounding the
// accumulator to BF16 after every micro-batch — and ranks parameters by the
// relative error introduced. The top of the list is exactly the set of
// "critical gradient buffers that require high-precision floating-point
// accumulations" the paper's methodology identifies (§6.2).
func CriticalBuffers(m *model.Model, batches [][2][]int, env *model.Env) []BufferSensitivity {
	params := m.Params()

	run := func(roundBF16 bool) []*tensor.Tensor {
		m.ZeroGrads()
		for _, b := range batches {
			// Accumulate one micro-batch.
			prev := make([]*tensor.Tensor, len(params))
			if roundBF16 {
				for i, p := range params {
					prev[i] = p.G.Clone()
				}
			}
			_, ctx := m.ForwardLoss(b[0], b[1], env, 1/float32(len(batches)))
			m.Backward(ctx)
			if roundBF16 {
				// Emulate a BF16 gradient buffer: the running sum lives in
				// BF16, so every accumulation rounds.
				for i, p := range params {
					for j := range p.G.Data {
						delta := p.G.Data[j] - prev[i].Data[j]
						p.G.Data[j] = bf16.Add(bf16.Round(prev[i].Data[j]), delta)
					}
				}
			}
		}
		out := make([]*tensor.Tensor, len(params))
		for i, p := range params {
			out[i] = p.G.Clone()
		}
		return out
	}

	fp32 := run(false)
	lowp := run(true)
	sens := make([]BufferSensitivity, len(params))
	for i := range params {
		var num, den float64
		for j := range fp32[i].Data {
			d := float64(fp32[i].Data[j]) - float64(lowp[i].Data[j])
			num += d * d
			den += float64(fp32[i].Data[j]) * float64(fp32[i].Data[j])
		}
		rel := 0.0
		if den > 0 {
			rel = math.Sqrt(num / den)
		}
		sens[i] = BufferSensitivity{Name: params[i].Name, RelErr: rel}
	}
	sort.Slice(sens, func(i, j int) bool { return sens[i].RelErr > sens[j].RelErr })
	return sens
}
