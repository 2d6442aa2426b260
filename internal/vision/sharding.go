package vision

import (
	"llama4d/internal/model"
	"llama4d/internal/sim/cost"
)

// ShardingOption enumerates the Fig 6 encoder-placement choices.
type ShardingOption int

// The three candidate designs of §3.2.1.
const (
	// Opt1WholePP places the encoder on the first PP rank and pipes its
	// output through the text pipeline's P2Ps.
	Opt1WholePP ShardingOption = iota + 1
	// Opt2EncoderFirst runs the encoder as a serial pre-processing stage on
	// the first PP rank, then broadcasts image tokens to all stages.
	Opt2EncoderFirst
	// Opt3Replicated replicates the encoder on every PP rank, each handling
	// bs/pp of the images, with an all-gather of the outputs — the design
	// production adopted (33% → 8% encoder share).
	Opt3Replicated
)

func (o ShardingOption) String() string {
	switch o {
	case Opt1WholePP:
		return "opt1-whole-pp"
	case Opt2EncoderFirst:
		return "opt2-encoder-first"
	case Opt3Replicated:
		return "opt3-replicated"
	}
	return "unknown"
}

// MultimodalSim evaluates encoder-sharding options on the cost model.
type MultimodalSim struct {
	Cost cost.Model
	Enc  ViTConfig
	Text model.Config
	TP   int
	PP   int
	BS   int // images (= text samples) per DP group per step
	// TextTokens is the text sequence length (short in multimodal
	// pre-training: <200 tokens, §3.2.2).
	TextTokens int
	Ratio      int // self:cross layer ratio
}

// Production672 models the late-training configuration that triggered the
// Option 2 → 3 switch: 672 px images into a ViT-H-class encoder fused with
// the 70B-class text stack. TextTokens counts the text tokens of one packed
// pipeline sample (≈4 image-text pairs of <200 text tokens each, §3.2.2);
// BS counts images per step per DP group. Under these shapes Option 2's
// serial encoder consumes ≈35% of the step and Option 3 cuts it to ≈7% —
// the paper's 33% → 8%.
func Production672() MultimodalSim {
	enc := ViTConfig{ImageSize: 672, PatchSize: 14, Channels: 3, Dim: 1024, Hidden: 4096, NHeads: 16, NLayers: 32}
	text := model.Llama3_70B()
	return MultimodalSim{
		Cost: cost.Default(), Enc: enc, Text: text,
		TP: 8, PP: 8, BS: 32, TextTokens: 768, Ratio: 4,
	}
}

// encoderFwdBwd returns the forward+backward time of the encoder on one
// image on one GPU (TP-sharded).
func (s MultimodalSim) encoderFwdBwd() float64 {
	m := s.Cost
	tok := int64(s.Enc.Tokens())
	d, h := int64(s.Enc.Dim), int64(s.Enc.Hidden)
	hd := d / int64(s.Enc.NHeads)
	nhL := int64(s.Enc.NHeads) / int64(s.TP)
	_, dense := m.DenseLayer(tok, d, h/int64(s.TP), nhL, nhL, hd) // self-attention: q, k, v heads alike
	perLayer := dense + m.Attention(tok, tok, tok*tok, nhL, hd)
	return 3 * float64(s.Enc.NLayers) * perLayer // fwd + bwd
}

// textLayers returns the forward time of one text layer of each kind on one
// sample on one GPU slice: a causal self-attention layer and a
// cross-attention layer attending the image tokens.
func (s MultimodalSim) textLayers() (self, cross float64) {
	m := s.Cost
	tok := int64(s.TextTokens)
	imgTok := int64(s.Enc.Tokens())
	d, h := int64(s.Text.Dim), int64(s.Text.Hidden)
	hd := int64(s.Text.HeadDim())
	nhL := int64(s.Text.NHeads / s.TP)
	nkvL := int64(s.Text.NKVHeads / s.TP)

	_, dense := m.DenseLayer(tok, d, h/int64(s.TP), nhL, nkvL, hd)
	self = dense + m.Attention(tok, tok, tok*(tok+1)/2, nhL, hd)
	cross = m.GEMM(tok, d, nhL*hd) + 2*m.GEMM(imgTok, d, nkvL*hd) +
		m.GEMM(tok, nhL*hd, d) +
		2*m.GEMM(tok, d, h/int64(s.TP)) + m.GEMM(tok, h/int64(s.TP), d) +
		m.Attention(tok, imgTok, tok*imgTok, nhL, hd)
	return self, cross
}

// textFwdBwd returns the forward+backward time of the text stack on one
// sample on one GPU slice: frozen self-attention layers (backward computes
// input gradients only ≈ 1× forward instead of 2×) plus trainable
// cross-attention layers attending the image tokens.
func (s MultimodalSim) textFwdBwd() float64 {
	self, cross := s.textLayers()
	nCross := s.Text.NLayers / s.Ratio
	// Frozen self layers: fwd + input-grad bwd ≈ 2× fwd. Trainable cross
	// layers: fwd + full bwd ≈ 3× fwd (§3.2.2's imbalance source).
	return 2*float64(s.Text.NLayers)*self + 3*float64(nCross)*cross
}

// OptionReport is one Fig 6 evaluation point.
type OptionReport struct {
	Option       ShardingOption
	EncoderTime  float64 // encoder wall time per step (per DP group)
	TextTime     float64 // text pipeline wall time per step
	CommTime     float64 // broadcast / all-gather overhead
	EncoderShare float64 // encoder fraction of the step (paper: 33% → 8%)
}

// Evaluate computes the step composition under one sharding option.
func (s MultimodalSim) Evaluate(opt ShardingOption) OptionReport {
	encPer := s.encoderFwdBwd()
	textPer := s.textFwdBwd()
	// Text pipeline processes BS samples across PP ranks: wall time is the
	// per-rank share plus the pipeline's imperfection; a flat 15% bubble
	// approximates the Fig 9-calibrated schedules.
	textWall := float64(s.BS) * textPer / float64(s.PP) * 1.15

	imgBytes := 2 * float64(s.Enc.Tokens()) * float64(s.Enc.Dim)
	ranks := make([]int, s.PP)
	for i := range ranks {
		ranks[i] = i * s.TP
	}
	var rep OptionReport
	rep.Option = opt
	switch opt {
	case Opt1WholePP:
		// Encoder serial on the first rank, inside the pipeline: it extends
		// the first stage and all image tokens ride every P2P.
		rep.EncoderTime = float64(s.BS) * encPer
		rep.CommTime = float64(s.BS) * s.Cost.P2P(0, s.TP, imgBytes) * float64(s.PP-1)
	case Opt2EncoderFirst:
		// Encoder serial on the first rank as pre-processing; outputs
		// broadcast once per step.
		rep.EncoderTime = float64(s.BS) * encPer
		rep.CommTime = s.Cost.AllGather(ranks, float64(s.BS)*imgBytes)
	case Opt3Replicated:
		// Every PP rank encodes bs/pp images in parallel; outputs
		// all-gathered.
		rep.EncoderTime = float64(s.BS) / float64(s.PP) * encPer
		rep.CommTime = s.Cost.AllGather(ranks, float64(s.BS)*imgBytes)
	}
	rep.TextTime = textWall
	rep.EncoderShare = (rep.EncoderTime + rep.CommTime) / (rep.EncoderTime + rep.CommTime + rep.TextTime)
	return rep
}

// StageBalance evaluates the §3.2.2 wrapping options for the text model:
// option 1 wraps Ratio self layers plus one cross layer per virtual stage
// (balanced, fewer stages); option 2 makes each layer its own stage (more
// stages, imbalanced). Returns the per-stage time spread (max/min) and the
// stage count for each.
func (s MultimodalSim) StageBalance() (opt1Spread float64, opt1Stages int, opt2Spread float64, opt2Stages int) {
	self, cross := s.textLayers()
	selfLayer, crossLayer := 2*self, 3*cross // fwd+bwd, as in textFwdBwd

	// Option 1: each stage = Ratio self + 1 cross: identical stages.
	opt1Stages = s.Text.NLayers / s.Ratio
	opt1Spread = 1
	// Option 2: single-layer stages: cross vs self stage times differ.
	opt2Stages = s.Text.NLayers + s.Text.NLayers/s.Ratio
	if crossLayer > selfLayer {
		opt2Spread = crossLayer / selfLayer
	} else {
		opt2Spread = selfLayer / crossLayer
	}
	return opt1Spread, opt1Stages, opt2Spread, opt2Stages
}
