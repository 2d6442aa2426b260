package core

import (
	"math"
	"testing"

	"llama4d/internal/data"
	"llama4d/internal/fsdp"
	"llama4d/internal/model"
)

// TestOverlapStepBitwiseMatchesSync runs the same ZeRO-3 TP2·PP2·DP2
// interleaved training steps synchronously and under the comm-compute overlap
// engine — parameter prefetch, async gradient reduce-scatter, pre-posted
// pipeline P2P — at window depths 1, 2 and 4. An overlapped step whose loss
// bits diverge from the synchronous step is a correctness bug, not a
// performance trade.
func TestOverlapStepBitwiseMatchesSync(t *testing.T) {
	lossBits := func(overlap OverlapConfig) [2]uint64 {
		cfg := Config{
			Model: model.Config{Vocab: 64, Dim: 32, Hidden: 64, NHeads: 4, NKVHeads: 2,
				NLayers: 4, MaxSeq: 32, RopeBase: 10000},
			Topo: Topology{TP: 2, CP: 1, PP: 2, DP: 2},
			V:    2, NMB: 2, NC: 2,
			ZeRO: fsdp.ZeRO3, Seq: 32, GBS: 4, LR: 3e-3,
			UseDocMask: true, Seed: 31,
			Overlap: overlap,
		}
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen := &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 8, Seed: 32}
		var bits [2]uint64
		for step := range bits {
			loss, err := cl.TryStep(gen, int64(step))
			if err != nil {
				t.Fatal(err)
			}
			bits[step] = math.Float64bits(loss)
		}
		return bits
	}
	sync := lossBits(OverlapConfig{})
	for _, depth := range []int{1, 2, 4} {
		ov := OverlapConfig{Params: depth, Grads: true, P2P: depth}
		if got := lossBits(ov); got != sync {
			t.Errorf("overlap %+v: loss bits %x diverge from synchronous %x", ov, got, sync)
		}
	}
}
