package model

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/tensor"
)

// gradCheck verifies analytic parameter and input gradients of a layer
// against central finite differences of loss(x) = sum(layer(x) ∘ w).
func gradCheck(t *testing.T, name string, l Layer, rows, cols int, env *Env, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := tensor.RandN(rng, 0.5, rows, cols)
	y, ctx := l.Forward(x, env)
	w := tensor.RandN(rng, 1, y.Shape...)
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	dx := l.Backward(ctx, w)

	loss := func() float64 {
		out, _ := l.Forward(x, env)
		return tensor.Dot(out, w)
	}
	const eps = 1e-3
	checkAt := func(what string, data []float32, grad []float32, idx int) {
		t.Helper()
		orig := data[idx]
		data[idx] = orig + eps
		lp := loss()
		data[idx] = orig - eps
		lm := loss()
		data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(grad[idx])
		if math.Abs(numeric-analytic) > 2e-2*(1+math.Abs(numeric)) {
			t.Fatalf("%s %s[%d]: numeric %v analytic %v", name, what, idx, numeric, analytic)
		}
	}
	for _, idx := range []int{0, len(x.Data) / 3, len(x.Data) - 1} {
		checkAt("dx", x.Data, dx.Data, idx)
	}
	for _, p := range l.Params() {
		for _, idx := range []int{0, len(p.W.Data) / 2, len(p.W.Data) - 1} {
			checkAt(p.Name, p.W.Data, p.G.Data, idx)
		}
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gradCheck(t, "linear", NewLinear("l", 6, 5, rng), 4, 6, nil, 2)
}

func TestRMSNormGradCheck(t *testing.T) {
	gradCheck(t, "rmsnorm", NewRMSNorm("n", 8), 5, 8, nil, 3)
}

func TestRMSNormNormalises(t *testing.T) {
	n := NewRMSNorm("n", 4)
	x := tensor.FromSlice([]float32{3, 3, 3, 3}, 1, 4)
	y, _ := n.Forward(x, nil)
	for _, v := range y.Data {
		if math.Abs(float64(v)-1) > 1e-3 {
			t.Fatalf("RMSNorm of constant row: %v", y.Data)
		}
	}
}

func TestRoPEPreservesNorm(t *testing.T) {
	r := RoPE{HeadDim: 8, Base: 10000}
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandN(rng, 1, 6, 16) // 2 heads
	pos := []int{0, 5, 10, 100, 1000, 7}
	y := r.Apply(x, pos)
	for i := 0; i < 6; i++ {
		var nx, ny float64
		for j := 0; j < 16; j++ {
			nx += float64(x.At(i, j) * x.At(i, j))
			ny += float64(y.At(i, j) * y.At(i, j))
		}
		if math.Abs(nx-ny) > 1e-3*(1+nx) {
			t.Fatalf("row %d: rotation changed norm %v -> %v", i, nx, ny)
		}
	}
}

func TestRoPEPositionZeroIsIdentity(t *testing.T) {
	r := RoPE{HeadDim: 4, Base: 10000}
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandN(rng, 1, 3, 4)
	y := r.Apply(x, []int{0, 0, 0})
	if tensor.MaxDiff(x, y) > 1e-6 {
		t.Fatal("RoPE at position 0 must be identity")
	}
}

func TestRoPEGradInvertsApply(t *testing.T) {
	r := RoPE{HeadDim: 8, Base: 10000}
	rng := rand.New(rand.NewSource(6))
	x := tensor.RandN(rng, 1, 4, 8)
	pos := []int{3, 7, 11, 200}
	back := r.ApplyGrad(r.Apply(x, pos), pos)
	if tensor.MaxDiff(back, x) > 1e-5 {
		t.Fatal("ApplyGrad must invert Apply")
	}
}

func TestRoPERelativeProperty(t *testing.T) {
	// RoPE's defining property: <rot(q,m), rot(k,n)> depends only on m-n.
	r := RoPE{HeadDim: 8, Base: 10000}
	rng := rand.New(rand.NewSource(7))
	q := tensor.RandN(rng, 1, 1, 8)
	k := tensor.RandN(rng, 1, 1, 8)
	dot := func(m, n int) float64 {
		qr := r.Apply(q, []int{m})
		kr := r.Apply(k, []int{n})
		return tensor.Dot(qr, kr)
	}
	if math.Abs(dot(5, 3)-dot(12, 10)) > 1e-4 {
		t.Fatalf("relative property violated: %v vs %v", dot(5, 3), dot(12, 10))
	}
}

func TestFFNGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	gradCheck(t, "ffn", NewFFN("f", 6, 12, rng), 3, 6, nil, 9)
}

func seqEnvDoc(seq int, docLens []int) *Env {
	return SeqEnv(seq, attention.Document{DocID: attention.DocIDsFromLengths(docLens, seq)})
}

func TestAttentionGradCheckCausal(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := NewAttention("a", 8, 2, 1, 4, 10000, rng)
	gradCheck(t, "attention", a, 6, 8, SeqEnv(6, attention.Causal{}), 11)
}

func TestAttentionGradCheckDocMask(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := NewAttention("a", 8, 4, 2, 2, 10000, rng)
	gradCheck(t, "attention-doc", a, 6, 8, seqEnvDoc(6, []int{3, 3}), 13)
}

func TestBlockGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cfg := Config{Vocab: 16, Dim: 8, Hidden: 16, NHeads: 2, NKVHeads: 1, NLayers: 1, MaxSeq: 8, RopeBase: 10000}
	b := NewBlock("b", cfg, rng)
	gradCheck(t, "block", b, 5, 8, SeqEnv(5, attention.Causal{}), 15)
}

func TestGQASharesKVHeads(t *testing.T) {
	// With NKVHeads=1 every query head must attend the same K/V: perturbing
	// the single KV head's weights changes all output head blocks.
	rng := rand.New(rand.NewSource(16))
	a := NewAttention("a", 8, 4, 1, 2, 10000, rng)
	env := SeqEnv(4, attention.Causal{})
	x := tensor.RandN(rng, 0.5, 4, 8)
	y1, _ := a.Forward(x, env)
	ParamByName(a.Params(), "a.wv").W.Data[0] += 0.5
	y2, _ := a.Forward(x, env)
	if tensor.MaxDiff(y1, y2) == 0 {
		t.Fatal("shared KV head perturbation must change output")
	}
}

func TestFrozenBlockSkipsWeightGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := Config{Vocab: 16, Dim: 8, Hidden: 16, NHeads: 2, NKVHeads: 2, NLayers: 1, MaxSeq: 8, RopeBase: 10000}
	b := NewBlock("b", cfg, rng)
	b.Frozen = true
	env := SeqEnv(4, attention.Causal{})
	x := tensor.RandN(rng, 0.5, 4, 8)
	y, ctx := b.Forward(x, env)
	dy := tensor.RandN(rng, 1, y.Shape...)
	dx := b.Backward(ctx, dy)
	for _, p := range b.Params() {
		if p.G.MaxAbs() != 0 {
			t.Fatalf("frozen block accumulated gradient in %s", p.Name)
		}
	}
	if dx.MaxAbs() == 0 {
		t.Fatal("frozen block must still propagate input gradients")
	}
	if b.TrainableParams() != nil {
		t.Fatal("frozen block must report no trainable params")
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	e := NewEmbedding("e", 10, 4, rng)
	x, ctx := e.Forward([]int{3, 7, 3})
	for j := 0; j < 4; j++ {
		if x.At(0, j) != e.P.W.At(3, j) || x.At(2, j) != e.P.W.At(3, j) {
			t.Fatal("embedding lookup wrong")
		}
	}
	dy := tensor.New(3, 4)
	dy.Fill(1)
	e.Backward(ctx, dy)
	// Token 3 used twice: gradient 2; token 7 once: gradient 1; others 0.
	if e.P.G.At(3, 0) != 2 || e.P.G.At(7, 0) != 1 || e.P.G.At(0, 0) != 0 {
		t.Fatalf("embedding grads: %v", e.P.G.Data[:40])
	}
}

func TestHeadLossDecreasesWithCorrectLogit(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	h := NewHead("h", 4, 6, rng)
	x := tensor.RandN(rng, 0.5, 3, 4)
	targets := []int{1, 2, 3}
	l1, _ := h.ForwardLoss(x, targets, 1, nil)
	// Uniform logits give loss ≈ ln(vocab).
	if math.Abs(l1-math.Log(6)) > 0.5 {
		t.Fatalf("initial loss %v far from ln(6)=%v", l1, math.Log(6))
	}
}

func TestHeadIgnoresNegativeTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	h := NewHead("h", 4, 6, rng)
	x := tensor.RandN(rng, 0.5, 3, 4)
	lossAll, _ := h.ForwardLoss(x, []int{1, 2, 3}, 1, nil)
	lossMasked, ctx := h.ForwardLoss(x, []int{1, -1, -1}, 1, nil)
	_ = lossAll
	// Masked rows contribute no gradient.
	dx := h.BackwardLoss(ctx)
	_ = lossMasked
	if dx.Rows() != 3 {
		t.Fatal("dx shape")
	}
}

func TestHeadGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	h := NewHead("h", 6, 8, rng)
	x := tensor.RandN(rng, 0.5, 4, 6)
	targets := []int{1, 0, 7, 3}
	_, ctx := h.ForwardLoss(x, targets, 1, nil)
	ZeroGrads(h.Params())
	dx := h.BackwardLoss(ctx)
	loss := func() float64 {
		l, _ := h.ForwardLoss(x, targets, 1, nil)
		return l
	}
	const eps = 1e-3
	for _, idx := range []int{0, 7, len(x.Data) - 1} {
		orig := x.Data[idx]
		x.Data[idx] = orig + eps
		lp := loss()
		x.Data[idx] = orig - eps
		lm := loss()
		x.Data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(dx.Data[idx])) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("head dx[%d]: numeric %v analytic %v", idx, numeric, dx.Data[idx])
		}
	}
	p := ParamByName(h.Params(), "h.proj")
	for _, idx := range []int{0, len(p.W.Data) / 2} {
		orig := p.W.Data[idx]
		p.W.Data[idx] = orig + eps
		lp := loss()
		p.W.Data[idx] = orig - eps
		lm := loss()
		p.W.Data[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(p.G.Data[idx])) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("head dW[%d]: numeric %v analytic %v", idx, numeric, p.G.Data[idx])
		}
	}
}

func TestModelForwardDeterministic(t *testing.T) {
	cfg := TinyConfig()
	m1 := New(cfg, rand.New(rand.NewSource(42)))
	m2 := New(cfg, rand.New(rand.NewSource(42)))
	tokens := []int{1, 2, 3, 4, 5, 6, 7, 8}
	targets := []int{2, 3, 4, 5, 6, 7, 8, 9}
	env := SeqEnv(8, attention.Causal{})
	l1, _ := m1.ForwardLoss(tokens, targets, env, 1)
	l2, _ := m2.ForwardLoss(tokens, targets, env, 1)
	if l1 != l2 {
		t.Fatalf("same seed must give identical loss: %v vs %v", l1, l2)
	}
}

func TestModelTrainingReducesLoss(t *testing.T) {
	// End-to-end: a tiny model must memorise a repeated sequence with SGD.
	cfg := TinyConfig()
	rng := rand.New(rand.NewSource(43))
	m := New(cfg, rng)
	seq := 16
	tokens := make([]int, seq)
	targets := make([]int, seq)
	for i := range tokens {
		tokens[i] = (i*7 + 3) % cfg.Vocab
		targets[i] = (i*7 + 10) % cfg.Vocab
	}
	env := SeqEnv(seq, attention.Causal{})
	var first, last float64
	lr := float32(0.2)
	for step := 0; step < 100; step++ {
		m.ZeroGrads()
		loss, ctx := m.ForwardLoss(tokens, targets, env, 1)
		m.Backward(ctx)
		if step == 0 {
			first = loss
		}
		last = loss
		for _, p := range m.Params() {
			p.W.AxpyFrom(-lr, p.G)
		}
	}
	if last > first*0.5 {
		t.Fatalf("loss did not drop: first %v last %v", first, last)
	}
}

func TestCopyWeightsTo(t *testing.T) {
	cfg := TinyConfig()
	src := New(cfg, rand.New(rand.NewSource(1)))
	dst := New(cfg, rand.New(rand.NewSource(2)))
	src.CopyWeightsTo(dst.Params())
	for i, p := range dst.Params() {
		if !tensor.BitwiseEqual(p.W, src.Params()[i].W) {
			t.Fatalf("param %s not copied", p.Name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := Config{Vocab: 8, Dim: 9, Hidden: 8, NHeads: 3, NKVHeads: 2}
	if bad.Validate() == nil {
		t.Fatal("NHeads%NKVHeads must be rejected")
	}
	if TinyConfig().Validate() != nil {
		t.Fatal("TinyConfig must validate")
	}
	if Llama3_405B().Validate() != nil {
		t.Fatal("405B config must validate")
	}
}

func TestConfigParamCounts(t *testing.T) {
	// The 405B config must count roughly 405 billion parameters.
	c := Llama3_405B()
	total := c.TotalParams()
	if total < 395e9 || total > 415e9 {
		t.Fatalf("405B param count = %d", total)
	}
	c8 := Llama3_8B()
	t8 := c8.TotalParams()
	if t8 < 7e9 || t8 > 9e9 {
		t.Fatalf("8B param count = %d", t8)
	}
}

func TestConfigFLOPs(t *testing.T) {
	c := Llama3_405B()
	// The famous 6·N·tokens rule of thumb: train FLOPs per token ≈ 6×params.
	// Backward ≈ 2× forward; ctx=1 removes the attention quadratic term.
	perTok := 3 * c.FwdFLOPs(1, 1)
	ratio := perTok / (6 * float64(c.TotalParams()))
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("FLOPs/token vs 6N ratio = %v", ratio)
	}
}

func TestStepLossMatchesManualLoop(t *testing.T) {
	cfg := TinyConfig()
	m1 := New(cfg, rand.New(rand.NewSource(3)))
	m2 := New(cfg, rand.New(rand.NewSource(3)))
	samples := []*Sample{
		{Tokens: []int{1, 2, 3, 4}, Targets: []int{2, 3, 4, 5}},
		{Tokens: []int{5, 6, 7, 8}, Targets: []int{6, 7, 8, 9}},
	}
	envFn := func(s *Sample) *Env { return SeqEnv(len(s.Tokens), attention.Causal{}) }
	m1.ZeroGrads()
	loss1 := m1.StepLoss(samples, envFn)
	m2.ZeroGrads()
	var loss2 float64
	for _, s := range samples {
		l, ctx := m2.ForwardLoss(s.Tokens, s.Targets, envFn(s), 0.5)
		m2.Backward(ctx)
		loss2 += l / 2
	}
	if math.Abs(loss1-loss2) > 1e-12 {
		t.Fatalf("StepLoss %v != manual %v", loss1, loss2)
	}
	g1 := GradientVector(m1.Params())
	g2 := GradientVector(m2.Params())
	if !tensor.BitwiseEqual(g1, g2) {
		t.Fatal("StepLoss gradients must match manual loop bitwise")
	}
}

func BenchmarkTinyModelStep(b *testing.B) {
	cfg := TinyConfig()
	m := New(cfg, rand.New(rand.NewSource(1)))
	tokens := make([]int, 32)
	targets := make([]int, 32)
	for i := range tokens {
		tokens[i] = i % cfg.Vocab
		targets[i] = (i + 1) % cfg.Vocab
	}
	env := SeqEnv(32, attention.Causal{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrads()
		_, ctx := m.ForwardLoss(tokens, targets, env, 1)
		m.Backward(ctx)
	}
}

func TestRecomputeBlockMatchesBitwise(t *testing.T) {
	// Activation recomputation must be invisible to the result: gradients
	// rebuilt from the checkpoint are bitwise identical (determinism, §6.2).
	cfg := Config{Vocab: 16, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 1, MaxSeq: 8, RopeBase: 10000}
	mk := func(mode RecomputeMode) (*Block, *tensor.Tensor, *tensor.Tensor) {
		rng := rand.New(rand.NewSource(77))
		b := NewBlock("b", cfg, rng)
		b.Recompute = mode
		x := tensor.RandN(rng, 0.5, 6, 16)
		dy := tensor.RandN(rng, 0.5, 6, 16)
		return b, x, dy
	}
	env := SeqEnv(6, attention.Causal{})
	b1, x, dy := mk(RecomputeNone)
	y1, c1 := b1.Forward(x, env)
	dx1 := b1.Backward(c1, dy)
	for _, mode := range []RecomputeMode{RecomputeSelective, RecomputeFull} {
		b2, x2, dy2 := mk(mode)
		y2, c2 := b2.Forward(x2, env)
		dx2 := b2.Backward(c2, dy2)
		if !tensor.BitwiseEqual(y1, y2) || !tensor.BitwiseEqual(dx1, dx2) {
			t.Fatalf("recompute mode %d changed outputs or input gradients", mode)
		}
		g1 := GradientVector(b1.Params())
		g2 := GradientVector(b2.Params())
		if !tensor.BitwiseEqual(g1, g2) {
			t.Fatalf("recompute mode %d changed weight gradients", mode)
		}
	}
}

func TestRecomputeContextDropsActivations(t *testing.T) {
	cfg := Config{Vocab: 16, Dim: 8, Hidden: 16, NHeads: 2, NKVHeads: 2, NLayers: 1, MaxSeq: 8, RopeBase: 10000}
	rng := rand.New(rand.NewSource(78))
	b := NewBlock("b", cfg, rng)
	b.Recompute = RecomputeFull
	x := tensor.RandN(rng, 0.5, 4, 8)
	_, ctxAny := b.Forward(x, SeqEnv(4, attention.Causal{}))
	ctx := ctxAny.(*blockCtx)
	if ctx.n1 != nil || ctx.at != nil || ctx.n2 != nil || ctx.ff != nil {
		t.Fatal("full-recompute context must not retain sub-layer activations")
	}
	if ctx.x == nil {
		t.Fatal("recompute context must retain the checkpoint input")
	}
	// Selective: FFN path retained, attention path (the O(seq²) part) dropped.
	b.Recompute = RecomputeSelective
	_, ctxAny = b.Forward(x, SeqEnv(4, attention.Causal{}))
	ctx = ctxAny.(*blockCtx)
	if ctx.at != nil || ctx.n1 != nil {
		t.Fatal("selective recompute must drop the attention contexts")
	}
	if ctx.n2 == nil || ctx.ff == nil {
		t.Fatal("selective recompute must keep the FFN contexts")
	}
}

func TestCheckpointRoundTripBitwise(t *testing.T) {
	cfg := TinyConfig()
	src := New(cfg, rand.New(rand.NewSource(91)))
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	dst := New(cfg, rand.New(rand.NewSource(92)))
	if err := LoadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	for i, p := range dst.Params() {
		if !tensor.BitwiseEqual(p.W, src.Params()[i].W) {
			t.Fatalf("param %s not restored bitwise", p.Name)
		}
	}
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	cfg := TinyConfig()
	src := New(cfg, rand.New(rand.NewSource(93)))
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	other := Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2, NLayers: 2, MaxSeq: 16, RopeBase: 10000}
	dst := New(other, rand.New(rand.NewSource(94)))
	if err := LoadParams(&buf, dst.Params()); err == nil {
		t.Fatal("shape mismatch must be rejected")
	}
	if err := LoadParams(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}), src.Params()); err == nil {
		t.Fatal("bad magic must be rejected")
	}
}

func TestCheckpointResumeContinuesTrainingIdentically(t *testing.T) {
	// Save after k steps, restore into a fresh model, continue: the resumed
	// run must match an uninterrupted run bitwise (determinism everywhere).
	cfg := TinyConfig()
	tokens := make([]int, 16)
	targets := make([]int, 16)
	for i := range tokens {
		tokens[i] = (i * 5) % cfg.Vocab
		targets[i] = (i*5 + 1) % cfg.Vocab
	}
	env := SeqEnv(16, attention.Causal{})
	step := func(m *Model) {
		m.ZeroGrads()
		_, ctx := m.ForwardLoss(tokens, targets, env, 1)
		m.Backward(ctx)
		for _, p := range m.Params() {
			p.W.AxpyFrom(-0.05, p.G)
		}
	}
	full := New(cfg, rand.New(rand.NewSource(95)))
	for i := 0; i < 6; i++ {
		step(full)
	}

	part := New(cfg, rand.New(rand.NewSource(95)))
	for i := 0; i < 3; i++ {
		step(part)
	}
	var buf bytes.Buffer
	if err := SaveParams(&buf, part.Params()); err != nil {
		t.Fatal(err)
	}
	resumed := New(cfg, rand.New(rand.NewSource(96)))
	if err := LoadParams(&buf, resumed.Params()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		step(resumed)
	}
	for i, p := range resumed.Params() {
		if !tensor.BitwiseEqual(p.W, full.Params()[i].W) {
			t.Fatalf("resumed training diverged at %s", p.Name)
		}
	}
}
