package model

import "fmt"

// Config describes a Llama-family transformer. Tests use tiny dimensions;
// the performance simulator instantiates the true Llama 3 405B
// hyper-parameters (126 layers after the paper's §3.1.2 co-design).
type Config struct {
	Vocab    int
	Dim      int
	Hidden   int
	NHeads   int
	NKVHeads int
	NLayers  int
	MaxSeq   int
	RopeBase float64
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.NHeads < 1 || c.NKVHeads < 1 {
		return fmt.Errorf("model: NHeads %d and NKVHeads %d must be >= 1", c.NHeads, c.NKVHeads)
	}
	if c.NHeads%c.NKVHeads != 0 {
		return fmt.Errorf("model: NHeads %d not divisible by NKVHeads %d", c.NHeads, c.NKVHeads)
	}
	if c.Dim%c.NHeads != 0 {
		return fmt.Errorf("model: Dim %d not divisible by NHeads %d", c.Dim, c.NHeads)
	}
	if c.HeadDim()%2 != 0 {
		return fmt.Errorf("model: head dim %d must be even for RoPE", c.HeadDim())
	}
	return nil
}

// HeadDim returns the per-head dimension.
func (c Config) HeadDim() int { return c.Dim / c.NHeads }

// TinyConfig is a small configuration for tests: large enough to exercise
// GQA (NHeads > NKVHeads) and multi-layer behaviour, small enough to train
// in milliseconds.
func TinyConfig() Config {
	return Config{
		Vocab: 64, Dim: 32, Hidden: 64, NHeads: 4, NKVHeads: 2,
		NLayers: 2, MaxSeq: 64, RopeBase: 10000,
	}
}

// Llama3_405B returns the published 405B hyper-parameters with the paper's
// 126-layer co-designed depth (§3.1.2).
func Llama3_405B() Config {
	return Config{
		Vocab: 128256, Dim: 16384, Hidden: 53248, NHeads: 128, NKVHeads: 8,
		NLayers: 126, MaxSeq: 131072, RopeBase: 500000,
	}
}

// Llama3_70B returns the 70B hyper-parameters.
func Llama3_70B() Config {
	return Config{
		Vocab: 128256, Dim: 8192, Hidden: 28672, NHeads: 64, NKVHeads: 8,
		NLayers: 80, MaxSeq: 131072, RopeBase: 500000,
	}
}

// Llama3_8B returns the 8B hyper-parameters.
func Llama3_8B() Config {
	return Config{
		Vocab: 128256, Dim: 4096, Hidden: 14336, NHeads: 32, NKVHeads: 8,
		NLayers: 32, MaxSeq: 131072, RopeBase: 500000,
	}
}

// LayerParams returns the parameter count of one transformer layer.
func (c Config) LayerParams() int64 {
	d, h := int64(c.Dim), int64(c.Hidden)
	hd := int64(c.HeadDim())
	attn := d*int64(c.NHeads)*hd + 2*d*int64(c.NKVHeads)*hd + int64(c.NHeads)*hd*d
	ffn := 3 * d * h
	norms := 2 * d
	return attn + ffn + norms
}

// EmbeddingParams returns the embedding-table parameter count.
func (c Config) EmbeddingParams() int64 { return int64(c.Vocab) * int64(c.Dim) }

// HeadParams returns the output head parameter count (projection + norm).
func (c Config) HeadParams() int64 { return int64(c.Vocab)*int64(c.Dim) + int64(c.Dim) }

// TotalParams returns the full model parameter count.
func (c Config) TotalParams() int64 {
	return c.EmbeddingParams() + int64(c.NLayers)*c.LayerParams() + c.HeadParams()
}

// LayerFwdFLOPs returns the dense forward FLOPs of one transformer layer for
// `tokens` tokens, each attending `ctx` key positions on average (2 FLOPs
// per MAC). Returned as float64: at 405B × 16M-token steps the counts
// overflow int64.
func (c Config) LayerFwdFLOPs(tokens, ctx int64) float64 {
	d, h := float64(c.Dim), float64(c.Hidden)
	hd := float64(c.HeadDim())
	nh, nkv := float64(c.NHeads), float64(c.NKVHeads)
	t := float64(tokens)
	proj := 2 * t * (d*nh*hd + 2*d*nkv*hd + nh*hd*d) // q,k,v,o projections
	score := 2 * t * float64(ctx) * nh * hd * 2      // QKᵀ and PV
	ffn := 2 * t * 3 * d * h
	return proj + score + ffn
}

// FwdFLOPs returns forward FLOPs for the whole model over `tokens` tokens
// with average attended context ctx (plus the output projection).
func (c Config) FwdFLOPs(tokens, ctx int64) float64 {
	head := 2 * float64(tokens) * float64(c.Dim) * float64(c.Vocab)
	return float64(c.NLayers)*c.LayerFwdFLOPs(tokens, ctx) + head
}
