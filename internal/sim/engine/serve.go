package engine

import (
	"fmt"

	"llama4d/internal/model"
	"llama4d/internal/sim/cost"
)

// ServeSim configures a steady-state serving simulation: a TP-sharded decode
// engine running continuous batching at a fixed batch size, each request
// bringing a Prompt-token prefill and generating Output tokens. It is the
// serving counterpart of TrainSim, built on the same roofline cost model —
// decode GEMMs are skinny (m = Batch), so they land on the memory-bound side
// where weight streaming dominates, which is what makes batching pay.
type ServeSim struct {
	Cost  cost.Model
	Model model.Config

	TP     int
	Batch  int // steady-state decode batch (continuous batching keeps it full)
	Prompt int // prompt tokens per request
	Output int // generated tokens per request
}

// ServeReport is the outcome of a serving simulation.
type ServeReport struct {
	PrefillSeconds float64 // one request's prompt pass (= TTFT, empty queue)
	StepSeconds    float64 // one decode step of the whole batch
	TPCommSeconds  float64 // decode-step allreduce time, before overlap
	TTFTSeconds    float64

	TokensPerSec    float64 // generated tokens/sec of the whole TP engine
	ReqPerSec       float64 // steady-state request completions/sec
	ReqPerSecPerGPU float64 // ReqPerSec / TP — the per-H100 headline number
}

func (ss ServeSim) tpRanks() []int {
	out := make([]int, ss.TP)
	for i := range out {
		out[i] = i
	}
	return out
}

// serveDecodeChunks mirrors serve.Engine.decodeChunks: a decode batch splits
// into two chunks under TP (the second chunk's compute hides the first
// chunk's nonblocking all-reduce), one otherwise. The two must change
// together.
func serveDecodeChunks(tp, batch int) int {
	if tp > 1 && batch >= 2 {
		return 2
	}
	return 1
}

// serveChunkBounds mirrors serve.Engine's chunkBounds: [0, n) into nc
// contiguous chunks, first chunks one longer when uneven.
func serveChunkBounds(n, nc int) [][2]int {
	out := make([][2]int, 0, nc)
	lo := 0
	for c := 0; c < nc; c++ {
		size := n / nc
		if c < n%nc {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}

// DecodeFLOPs returns the exact world-total nominal matmul FLOP count of one
// serve.Engine.DecodeStep over a batch whose i-th sequence attends kvLens[i]
// key positions (committed history plus the token staged this step). Every
// term mirrors a tensor-package matmul head the engine dispatches — QKV and
// output projections, the per-head QKᵀ/PV sweeps, the SwiGLU GEMMs, and the
// replicated vocabulary projection; RMSNorm, RoPE, SwiGLU activation, and the
// embedding gather count no FLOPs. The serving xval harness asserts this
// value equals the measured tensor.FLOPCount delta bit for bit.
func (ss ServeSim) DecodeFLOPs(kvLens []int) int64 {
	cfg := ss.Model
	b := int64(len(kvLens))
	d := int64(cfg.Dim)
	hd := int64(cfg.HeadDim())
	nhL := int64(cfg.NHeads / ss.TP)
	nkvL := int64(cfg.NKVHeads / ss.TP)
	hL := int64(cfg.Hidden / ss.TP)
	var sumKV int64
	for _, c := range kvLens {
		sumKV += int64(c)
	}
	perLayer := 2*b*d*(nhL+2*nkvL)*hd + // q, k, v projections
		4*nhL*hd*sumKV + // QKᵀ + PV, one row per sequence per head
		2*b*nhL*hd*d + // output projection
		6*b*d*hL // gate, up, down
	perRank := int64(cfg.NLayers)*perLayer + 2*b*d*int64(cfg.Vocab)
	return int64(ss.TP) * perRank
}

// DecodeTPTraffic returns the exact per-rank "tp/allreduce" traffic of one
// DecodeStep over a batch-row decode: two all-reduces per layer per chunk
// (attention output and FFN down projections), each carrying a [rows, Dim]
// float32 partial at the ring volume 2·(tp−1)/tp — the same closed-form
// accounting comm.Group.IAllReduce records, integer truncation per op
// included. Zero when TP == 1 (the engine skips the collective entirely).
// Test surface: serve's xval harness and this package's tests assert it.
func (ss ServeSim) DecodeTPTraffic(batch int) (bytes, msgs int64) {
	if ss.TP <= 1 {
		return 0, 0
	}
	nc := serveDecodeChunks(ss.TP, batch)
	var perOp int64
	for _, bd := range serveChunkBounds(batch, nc) {
		rows := bd[1] - bd[0]
		perOp += int64(rows*ss.Model.Dim) * 4 * 2 * int64(ss.TP-1) / int64(ss.TP)
	}
	L := int64(ss.Model.NLayers)
	return 2 * L * perOp, 2 * L * int64(nc)
}

// prefillSeconds models one request's prompt pass on the TP engine: dense
// causal attention over Prompt tokens, all projections at m = Prompt, two
// exposed all-reduces per layer, and the head projection of the single
// sampled row.
func (ss ServeSim) prefillSeconds() float64 {
	m := ss.Cost
	cfg := ss.Model
	p := int64(ss.Prompt)
	d, hd := int64(cfg.Dim), int64(cfg.HeadDim())
	nhL := int64(cfg.NHeads / ss.TP)
	nkvL := int64(cfg.NKVHeads / ss.TP)
	hL := int64(cfg.Hidden / ss.TP)

	_, layer := m.DenseLayer(p, d, hL, nhL, nkvL, hd)
	layer += m.Attention(p, p, p*(p+1)/2, nhL, hd) // causal pairs: Σ (i+1)
	if ss.TP > 1 {
		actBytes := 2 * float64(p) * float64(d)
		layer += 2 * m.AllReduce(ss.tpRanks(), actBytes)
	}
	return float64(cfg.NLayers)*layer + m.GEMM(1, d, int64(cfg.Vocab))
}

// decodeStepSeconds models one decode step of the full batch at average
// attended context kvLen, replaying the engine's chunk schedule: each chunk's
// attention + output projection computes, issues its all-reduce nonblocking,
// and the next chunk's compute hides it — only the last chunk's all-reduce
// is exposed per phase. Returns the step time and the total (pre-overlap)
// all-reduce time.
func (ss ServeSim) decodeStepSeconds(kvLen int) (step, comm float64) {
	m := ss.Cost
	cfg := ss.Model
	b := ss.Batch
	d, hd := int64(cfg.Dim), int64(cfg.HeadDim())
	nhL := int64(cfg.NHeads / ss.TP)
	nkvL := int64(cfg.NKVHeads / ss.TP)
	hL := int64(cfg.Hidden / ss.TP)

	nc := serveDecodeChunks(ss.TP, b)
	bounds := serveChunkBounds(b, nc)
	perSeqAttn := m.Attention(1, int64(kvLen), int64(kvLen), nhL, hd)

	layer := m.GEMM(int64(b), d, (nhL+2*nkvL)*hd) // q, k, v (unchunked)
	// Attention and FFN phases: per chunk, compute then all-reduce; the
	// chunk c all-reduce overlaps chunk c+1's compute, the last is exposed.
	for phase := 0; phase < 2; phase++ {
		var pending float64 // in-flight all-reduce from the previous chunk
		for _, bd := range bounds {
			rows := int64(bd[1] - bd[0])
			var compute float64
			if phase == 0 {
				compute = float64(rows)*perSeqAttn + m.GEMM(rows, nhL*hd, d)
			} else {
				compute = 2*m.GEMM(rows, d, hL) + m.GEMM(rows, hL, d)
			}
			if pending > compute {
				layer += pending - compute // exposed remainder
			}
			layer += compute
			if ss.TP > 1 {
				pending = m.AllReduce(ss.tpRanks(), 2*float64(rows)*float64(d))
				comm += pending
			}
		}
		layer += pending // last chunk's all-reduce has nothing to hide it
	}
	step = float64(cfg.NLayers)*layer + m.GEMM(int64(b), d, int64(cfg.Vocab))
	comm *= float64(cfg.NLayers)
	return step, comm
}

// Simulate runs the steady-state serving model: each request costs its own
// prefill plus Output decode steps shared Batch-wide, so the completion rate
// is 1 / (prefill + Output·step/Batch).
func (ss ServeSim) Simulate() (*ServeReport, error) {
	cfg := ss.Model
	if ss.TP < 1 || cfg.NHeads%ss.TP != 0 || cfg.NKVHeads%ss.TP != 0 || cfg.Hidden%ss.TP != 0 {
		return nil, fmt.Errorf("engine: heads (%d q, %d kv) or hidden %d not divisible by tp=%d",
			cfg.NHeads, cfg.NKVHeads, cfg.Hidden, ss.TP)
	}
	if ss.Batch < 1 || ss.Prompt < 1 || ss.Output < 1 {
		return nil, fmt.Errorf("engine: serve sim needs batch, prompt, output >= 1")
	}
	prefill := ss.prefillSeconds()
	step, comm := ss.decodeStepSeconds(ss.Prompt + ss.Output/2)
	perReq := prefill + float64(ss.Output)*step/float64(ss.Batch)
	rps := 1 / perReq
	return &ServeReport{
		PrefillSeconds:  prefill,
		StepSeconds:     step,
		TPCommSeconds:   comm,
		TTFTSeconds:     prefill,
		TokensPerSec:    rps * float64(ss.Output),
		ReqPerSec:       rps,
		ReqPerSecPerGPU: rps / float64(ss.TP),
	}, nil
}
