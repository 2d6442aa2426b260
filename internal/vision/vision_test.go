package vision

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/data"
	"llama4d/internal/model"
	"llama4d/internal/pp"
	"llama4d/internal/tensor"
)

func TestViTConfigTokens(t *testing.T) {
	c := ViTConfig{ImageSize: 448, PatchSize: 14, Channels: 3, Dim: 1280, Hidden: 5120, NHeads: 16, NLayers: 32}
	// The paper's resolutions: 448 px ≈ 1K tokens, 672 px ≈ 2.3K tokens.
	if c.Tokens() != 1024 {
		t.Fatalf("448px tokens = %d", c.Tokens())
	}
	c.ImageSize = 672
	if c.Tokens() != 2304 {
		t.Fatalf("672px tokens = %d", c.Tokens())
	}
	if c.Validate() != nil {
		t.Fatal("production ViT config must validate")
	}
	bad := c
	bad.ImageSize = 100
	if bad.Validate() == nil {
		t.Fatal("indivisible image size must be rejected")
	}
}

func TestViTForwardShape(t *testing.T) {
	cfg := TinyViT()
	v := NewViT("vit", cfg, rand.New(rand.NewSource(1)))
	patches := tensor.RandN(rand.New(rand.NewSource(2)), 0.5, cfg.Tokens(), cfg.PatchDim())
	out, _ := v.Forward(patches)
	if out.Rows() != cfg.Tokens() || out.Cols() != cfg.Dim {
		t.Fatalf("encoder output %v", out.Shape)
	}
}

func TestViTGradCheck(t *testing.T) {
	cfg := TinyViT()
	v := NewViT("vit", cfg, rand.New(rand.NewSource(3)))
	patches := tensor.RandN(rand.New(rand.NewSource(4)), 0.5, cfg.Tokens(), cfg.PatchDim())
	w := tensor.RandN(rand.New(rand.NewSource(5)), 1, cfg.Tokens(), cfg.Dim)
	out, ctx := v.Forward(patches)
	_ = out
	model.ZeroGrads(v.Params())
	v.Backward(ctx, w)

	loss := func() float64 {
		o, _ := v.Forward(patches)
		return tensor.Dot(o, w)
	}
	const eps = 1e-3
	p := v.PatchEmb.P
	for _, idx := range []int{0, len(p.W.Data) / 2} {
		orig := p.W.Data[idx]
		p.W.Data[idx] = orig + eps
		lp := loss()
		p.W.Data[idx] = orig - eps
		lm := loss()
		p.W.Data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(p.G.Data[idx])) > 2e-2*(1+math.Abs(numeric)) {
			t.Fatalf("patch emb grad[%d]: numeric %v analytic %v", idx, numeric, p.G.Data[idx])
		}
	}
	// Positional embedding gradient too.
	pe := v.PosEmb
	idx := 3
	orig := pe.W.Data[idx]
	pe.W.Data[idx] = orig + eps
	lp := loss()
	pe.W.Data[idx] = orig - eps
	lm := loss()
	pe.W.Data[idx] = orig
	numeric := (lp - lm) / (2 * eps)
	if math.Abs(numeric-float64(pe.G.Data[idx])) > 2e-2*(1+math.Abs(numeric)) {
		t.Fatalf("pos emb grad: numeric %v analytic %v", numeric, pe.G.Data[idx])
	}
}

func TestCrossAttentionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewCrossAttention("x", 8, 12, 2, 4, rng)
	x := tensor.RandN(rng, 0.5, 5, 8)
	img := tensor.RandN(rng, 0.5, 7, 12)
	w := tensor.RandN(rng, 1, 5, 8)
	_, ctx := c.Forward(x, img)
	model.ZeroGrads(c.Params())
	dx, dImg := c.Backward(ctx, w)

	loss := func() float64 {
		o, _ := c.Forward(x, img)
		return tensor.Dot(o, w)
	}
	const eps = 1e-3
	check := func(name string, data, grad []float32, idx int) {
		t.Helper()
		orig := data[idx]
		data[idx] = orig + eps
		lp := loss()
		data[idx] = orig - eps
		lm := loss()
		data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(grad[idx])) > 2e-2*(1+math.Abs(numeric)) {
			t.Fatalf("%s[%d]: numeric %v analytic %v", name, idx, numeric, grad[idx])
		}
	}
	check("dx", x.Data, dx.Data, 0)
	check("dx", x.Data, dx.Data, len(x.Data)-1)
	check("dImg", img.Data, dImg.Data, 5)
	wk := c.Wk.P
	check("wk", wk.W.Data, wk.G.Data, len(wk.W.Data)/2)
	wq := c.Wq.P
	check("wq", wq.W.Data, wq.G.Data, 1)
}

func TestCrossBlockResidualPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewCrossBlock("cb", 8, 12, 16, 2, rng)
	x := tensor.RandN(rng, 0.5, 4, 8)
	img := tensor.RandN(rng, 0.5, 6, 12)
	y, _ := b.Forward(x, img)
	if y.Rows() != 4 || y.Cols() != 8 {
		t.Fatalf("cross block output %v", y.Shape)
	}
	// Zeroing the cross-attention output projection must leave ~x + FFN path:
	// the residual keeps information flowing.
	b.XAttn.Wo.P.W.Zero()
	y2, _ := b.Forward(x, img)
	if tensor.MaxDiff(y2, x) > 100 {
		t.Fatal("residual path broken")
	}
	_ = y
}

func TestMultimodalFreezesTextParams(t *testing.T) {
	cfg := model.TinyConfig()
	text := model.New(cfg, rand.New(rand.NewSource(8)))
	enc := NewViT("vit", TinyViT(), rand.New(rand.NewSource(9)))
	mm := NewMultimodal(text, enc, 2, rand.New(rand.NewSource(10)))

	seq := 8
	tokens := []int{1, 2, 3, 4, 5, 6, 7, 8}
	targets := []int{2, 3, 4, 5, 6, 7, 8, 9}
	env := model.SeqEnv(seq, attention.Causal{})
	patches := SyntheticImage(enc.Cfg, 1, 1)

	mm.ZeroGrads()
	text.ZeroGrads()
	_, ctx := mm.ForwardLoss(tokens, targets, patches, env, 1)
	mm.Backward(ctx)

	for _, b := range text.Blocks {
		for _, p := range b.Params() {
			if p.G.MaxAbs() != 0 {
				t.Fatalf("frozen text param %s got gradient", p.Name)
			}
		}
	}
	for _, p := range text.Embed.Params() {
		if p.G.MaxAbs() != 0 {
			t.Fatal("frozen embedding got gradient")
		}
	}
	// Trainable side must receive gradients.
	var got bool
	for _, p := range mm.TrainableParams() {
		if p.G.MaxAbs() > 0 {
			got = true
			break
		}
	}
	if !got {
		t.Fatal("no gradient reached the trainable parameters")
	}
}

func TestMultimodalTrainingReducesLoss(t *testing.T) {
	cfg := model.TinyConfig()
	text := model.New(cfg, rand.New(rand.NewSource(11)))
	enc := NewViT("vit", TinyViT(), rand.New(rand.NewSource(12)))
	mm := NewMultimodal(text, enc, 2, rand.New(rand.NewSource(13)))

	seq := 8
	env := model.SeqEnv(seq, attention.Causal{})
	// Task: the target token is determined by the image label — solvable
	// only through cross-attention.
	type ex struct {
		img     *tensor.Tensor
		tokens  []int
		targets []int
	}
	var examples []ex
	for label := 0; label < 2; label++ {
		tg := make([]int, seq)
		tk := make([]int, seq)
		for i := range tg {
			tk[i] = 5
			tg[i] = 10 + label*20
		}
		examples = append(examples, ex{SyntheticImage(enc.Cfg, label, 2), tk, tg})
	}
	var first, last float64
	for step := 0; step < 200; step++ {
		mm.ZeroGrads()
		var loss float64
		for _, e := range examples {
			l, ctx := mm.ForwardLoss(e.tokens, e.targets, e.img, env, 0.5)
			mm.Backward(ctx)
			loss += l / 2
		}
		for _, p := range mm.TrainableParams() {
			p.W.AxpyFrom(-0.3, p.G)
		}
		if step == 0 {
			first = loss
		}
		last = loss
	}
	// With the text stack, embedding, and head all frozen at random init,
	// only the cross-attention/encoder path can move the loss; a clear but
	// partial reduction is the expected signature.
	if last > first*0.9 {
		t.Fatalf("multimodal loss did not drop: %v -> %v", first, last)
	}
}

func TestFig6EncoderSharding(t *testing.T) {
	s := Production672()
	o1 := s.Evaluate(Opt1WholePP)
	o2 := s.Evaluate(Opt2EncoderFirst)
	o3 := s.Evaluate(Opt3Replicated)

	// The paper's trajectory: at 672 px, the serial encoder (Option 2)
	// consumes ≈33% of the step; replication (Option 3) cuts that to ≈8%.
	if o2.EncoderShare < 0.25 || o2.EncoderShare > 0.45 {
		t.Fatalf("Option 2 encoder share %v, paper reports ≈0.33", o2.EncoderShare)
	}
	if o3.EncoderShare > 0.12 {
		t.Fatalf("Option 3 encoder share %v, paper reports ≈0.08", o3.EncoderShare)
	}
	if o2.EncoderShare < 3.5*o3.EncoderShare {
		t.Fatalf("replication must cut the share ≈4×: %v vs %v", o2.EncoderShare, o3.EncoderShare)
	}
	// Option 1 additionally drags image tokens through every P2P.
	if o1.CommTime <= o2.CommTime {
		t.Fatalf("Option 1 comm %v must exceed Option 2 %v", o1.CommTime, o2.CommTime)
	}
}

func TestFig6At448pxOption2WasFine(t *testing.T) {
	// Before the resolution bump, Option 2's encoder share was modest —
	// which is why it shipped first.
	s := Production672()
	s.Enc.ImageSize = 448
	s.Enc.NLayers = 32
	o2 := s.Evaluate(Opt2EncoderFirst)
	big := Production672().Evaluate(Opt2EncoderFirst)
	if o2.EncoderShare >= big.EncoderShare {
		t.Fatalf("448px share %v must be below 672px share %v", o2.EncoderShare, big.EncoderShare)
	}
}

func TestStageBalanceTradeoff(t *testing.T) {
	// §3.2.2: wrapping Ratio self layers + 1 cross layer per stage
	// (Option 1) balances stages; single-layer stages (Option 2) give more
	// stages but a large per-stage spread.
	s := Production672()
	spread1, stages1, spread2, stages2 := s.StageBalance()
	if spread1 != 1 {
		t.Fatalf("Option 1 spread %v, want balanced (1)", spread1)
	}
	if stages2 <= stages1 {
		t.Fatal("Option 2 must yield more virtual stages")
	}
	if spread2 < 1.5 {
		t.Fatalf("Option 2 spread %v too small to show the imbalance", spread2)
	}
}

func BenchmarkMultimodalStep(b *testing.B) {
	cfg := model.TinyConfig()
	text := model.New(cfg, rand.New(rand.NewSource(1)))
	enc := NewViT("vit", TinyViT(), rand.New(rand.NewSource(2)))
	mm := NewMultimodal(text, enc, 2, rand.New(rand.NewSource(3)))
	env := model.SeqEnv(8, attention.Causal{})
	patches := SyntheticImage(enc.Cfg, 0, 1)
	tokens := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm.ZeroGrads()
		_, ctx := mm.ForwardLoss(tokens, tokens, patches, env, 1)
		mm.Backward(ctx)
	}
}

// buildMultimodalStack creates the §3.2.2 "option 1" layer sequence — ratio
// self-attention blocks followed by one cross-attention layer, repeated —
// with deterministic weights for a given seed.
func buildMultimodalStack(cfg model.Config, enc ViTConfig, ratio int, seed int64) (*model.Embedding, []model.Layer, *model.Head) {
	rng := rand.New(rand.NewSource(seed))
	embed := model.NewEmbedding("embed", cfg.Vocab, cfg.Dim, rng)
	var layers []model.Layer
	cross := 0
	for l := 0; l < cfg.NLayers; l++ {
		layers = append(layers, model.NewBlock(fmt.Sprintf("layer%d", l), cfg, rng))
		if (l+1)%ratio == 0 {
			cb := NewCrossBlock(fmt.Sprintf("cross%d", cross), cfg.Dim, enc.Dim, cfg.Hidden, cfg.NHeads, rng)
			layers = append(layers, &CrossLayer{Block: cb})
			cross++
		}
	}
	head := model.NewHead("head", cfg.Dim, cfg.Vocab, rng)
	return embed, layers, head
}

func TestMultimodalUnderPipelineParallelism(t *testing.T) {
	// §3.2.2's option-1 wrapping, executed by the real PP executor: stages
	// of [self, self, cross] layers fed by Env.Aux image tokens; image
	// gradients accumulate through Env.AuxGrad. Must match the sequential
	// stack bitwise (the §6.2 criterion).
	textCfg := model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2,
		NLayers: 4, MaxSeq: 16, RopeBase: 10000}
	encCfg := TinyViT()
	ratio, seq, nmb := 2, 8, 2
	gen := &data.Generator{Vocab: textCfg.Vocab, Seq: seq, AvgDocLen: 4, Seed: 3}

	images := make([]*tensor.Tensor, nmb)
	for i := range images {
		images[i] = tensor.RandN(rand.New(rand.NewSource(int64(40+i))), 0.5, encCfg.Tokens(), encCfg.Dim)
	}
	samples := gen.GlobalBatch(0, nmb)
	newEnv := func(i int) *model.Env {
		env := data.Env(samples[i])
		env.Aux = images[i]
		env.AuxGrad = tensor.New(encCfg.Tokens(), encCfg.Dim)
		return env
	}

	// Sequential reference.
	embedR, layersR, headR := buildMultimodalStack(textCfg, encCfg, ratio, 55)
	refEnvs := make([]*model.Env, nmb)
	var refLoss float64
	for i, s := range samples {
		refEnvs[i] = newEnv(i)
		x, ec := embedR.Forward(s.Tokens)
		var ctxs []any
		for _, l := range layersR {
			var c any
			x, c = l.Forward(x, refEnvs[i])
			ctxs = append(ctxs, c)
		}
		loss, hc := headR.ForwardLoss(x, s.Targets, 1/float32(nmb), refEnvs[i])
		refLoss += loss / float64(nmb)
		dx := headR.BackwardLoss(hc)
		for li := len(layersR) - 1; li >= 0; li-- {
			dx = layersR[li].Backward(ctxs[li], dx)
		}
		embedR.Backward(ec, dx)
	}

	// Pipeline: 2 ranks, one [self self cross] stage each.
	sched := pp.NewFlexible(2, 1, nmb, 2)
	w := comm.NewWorld(2)
	g := w.NewGroup([]int{0, 1})
	execs := make([]*pp.Executor, 2)
	ppEnvs := make([]*model.Env, nmb)
	var ppParams []*model.Param
	for r := 0; r < 2; r++ {
		embed, layers, head := buildMultimodalStack(textCfg, encCfg, ratio, 55)
		st := &pp.Stage{Layers: layers[r*3 : r*3+3]}
		if r == 0 {
			st.Embed = embed
		} else {
			st.Head = head
		}
		execs[r] = &pp.Executor{World: w, Group: g, Rank: r, Sched: sched, Stages: []*pp.Stage{st}}
		ppParams = append(ppParams, st.Params()...)
	}
	mbs := make([]*pp.Microbatch, nmb)
	for i := range mbs {
		ppEnvs[i] = newEnv(i)
		mbs[i] = &pp.Microbatch{
			Samples: []*model.Sample{samples[i]},
			Envs:    []*model.Env{ppEnvs[i]},
			Scale:   1 / float32(nmb),
		}
	}
	losses := make([]float64, 2)
	if err := w.RunSPMD(func(rank int) {
		losses[rank], _ = execs[rank].RunStep(mbs)
	}); err != nil {
		t.Fatal(err)
	}
	if got := (losses[0] + losses[1]) / float64(nmb); math.Abs(got-refLoss) > 1e-12 {
		t.Fatalf("PP multimodal loss %v != sequential %v", got, refLoss)
	}

	// Weight gradients bitwise equal, matched by name.
	refG := map[string]*tensor.Tensor{}
	for _, p := range embedR.Params() {
		refG[p.Name] = p.G
	}
	for _, l := range layersR {
		for _, p := range l.Params() {
			refG[p.Name] = p.G
		}
	}
	for _, p := range headR.Params() {
		refG[p.Name] = p.G
	}
	for _, p := range ppParams {
		want, ok := refG[p.Name]
		if !ok {
			t.Fatalf("no reference grad for %s", p.Name)
		}
		if !tensor.BitwiseEqual(p.G, want) {
			t.Fatalf("grad of %s not bitwise equal under PP (maxdiff %v)", p.Name, tensor.MaxDiff(p.G, want))
		}
	}
	// Image-token gradients flow identically through Env.AuxGrad.
	for i := range images {
		if !tensor.BitwiseEqual(ppEnvs[i].AuxGrad, refEnvs[i].AuxGrad) {
			t.Fatalf("image gradient for micro-batch %d differs under PP", i)
		}
	}
}
