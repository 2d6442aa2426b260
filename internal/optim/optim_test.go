package optim

import (
	"bytes"
	"math"
	"testing"
)

func TestAdamWQuadratic(t *testing.T) {
	w := []float32{10}
	opt := NewAdamW(0.1)
	opt.WeightDecay = 0
	for i := 0; i < 500; i++ {
		opt.Tick()
		g := []float32{w[0] - 3}
		opt.Step(0, w, g)
	}
	if math.Abs(float64(w[0])-3) > 1e-2 {
		t.Fatalf("AdamW converged to %v, want 3", w[0])
	}
}

func TestAdamWWeightDecayShrinks(t *testing.T) {
	w := []float32{5}
	opt := NewAdamW(0.01)
	opt.WeightDecay = 0.5
	for i := 0; i < 100; i++ {
		opt.Tick()
		opt.Step(0, w, []float32{0}) // zero gradient: only decay acts
	}
	if w[0] >= 5 || w[0] < 0 {
		t.Fatalf("weight decay failed: w=%v", w[0])
	}
}

func TestAdamWIndependentSlices(t *testing.T) {
	opt := NewAdamW(0.1)
	w1, w2 := []float32{1}, []float32{1}
	opt.Tick()
	opt.Step(0, w1, []float32{1})
	opt.Step(1, w2, []float32{-1})
	if w1[0] == w2[0] {
		t.Fatal("independent slices must have independent moments")
	}
}

func TestAdamWDeterministic(t *testing.T) {
	run := func() float32 {
		w := []float32{2}
		opt := NewAdamW(0.05)
		for i := 0; i < 50; i++ {
			opt.Tick()
			opt.Step(0, w, []float32{w[0] * 0.3})
		}
		return w[0]
	}
	if math.Float32bits(run()) != math.Float32bits(run()) {
		t.Fatal("AdamW must be bitwise deterministic")
	}
}

func TestAdamWShardedMatchesUnsharded(t *testing.T) {
	// Running AdamW on two half-shards (with distinct ids) must match
	// running on the full vector: the ZeRO-1 sharded-optimizer property.
	full := []float32{1, 2, 3, 4}
	g := []float32{0.1, -0.2, 0.3, -0.4}
	o1 := NewAdamW(0.1)
	o2 := NewAdamW(0.1)
	a := append([]float32(nil), full...)
	b := append([]float32(nil), full...)
	for i := 0; i < 20; i++ {
		o1.Tick()
		o1.Step(0, a, g)
		o2.Tick()
		o2.Step(0, b[:2], g[:2])
		o2.Step(1, b[2:], g[2:])
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("sharded AdamW diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkAdamWStep(b *testing.B) {
	w := make([]float32, 1<<16)
	g := make([]float32, 1<<16)
	for i := range g {
		g[i] = float32(i%13) * 1e-3
	}
	opt := NewAdamW(1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Tick()
		opt.Step(0, w, g)
	}
}

func TestAdamWStateRoundTripBitwise(t *testing.T) {
	run := func(opt *AdamW, w []float32, steps int) {
		for i := 0; i < steps; i++ {
			opt.Tick()
			g := make([]float32, len(w))
			for j := range g {
				g[j] = w[j]*0.1 + float32(j)*1e-3
			}
			opt.Step(0, w, g)
		}
	}
	// Uninterrupted run.
	full := []float32{1, 2, 3, 4}
	optFull := NewAdamW(0.05)
	run(optFull, full, 10)

	// Interrupted run: 5 steps, save, restore into a fresh optimizer, 5 more.
	part := []float32{1, 2, 3, 4}
	optA := NewAdamW(0.05)
	run(optA, part, 5)
	var buf bytes.Buffer
	if err := optA.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	optB := NewAdamW(0.05)
	if err := optB.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if optB.StepCount() != 5 {
		t.Fatalf("restored step count %d", optB.StepCount())
	}
	run(optB, part, 5)
	for i := range full {
		if math.Float32bits(full[i]) != math.Float32bits(part[i]) {
			t.Fatalf("resumed AdamW diverged at %d: %v vs %v", i, full[i], part[i])
		}
	}
}

func TestWarmupCosineShape(t *testing.T) {
	lr := WarmupCosine(1.0, 0.1, 10, 100)
	// Warm-up: strictly increasing to the peak.
	for s := 1; s < 10; s++ {
		if lr(s) <= lr(s-1) {
			t.Fatalf("warm-up not increasing at %d", s)
		}
	}
	if math.Abs(lr(9)-1.0) > 1e-9 {
		t.Fatalf("peak LR %v", lr(9))
	}
	// Decay: strictly decreasing to minLR.
	for s := 11; s < 100; s++ {
		if lr(s) >= lr(s-1) {
			t.Fatalf("decay not decreasing at %d", s)
		}
	}
	if math.Abs(lr(100)-0.1) > 1e-9 || lr(1000) != 0.1 {
		t.Fatalf("final LR %v / %v", lr(100), lr(1000))
	}
	// Midpoint of the cosine is the mean of peak and min.
	mid := lr(55)
	if math.Abs(mid-0.55) > 0.02 {
		t.Fatalf("cosine midpoint %v", mid)
	}
}
