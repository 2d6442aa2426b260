package optim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
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

// TestAdamWLoadStateRejectsLyingHeader feeds LoadState a header whose
// moment length the stream does not deliver — 2²⁹ floats, where 8·n wraps
// to zero in uint32, and 2³²−1 — with a few bytes of moment data behind it:
// it must return io.ErrUnexpectedEOF without allocating the claimed size,
// and leave the optimizer as it was.
func TestAdamWLoadStateRejectsLyingHeader(t *testing.T) {
	for _, n := range []uint32{1 << 29, 1<<32 - 1} {
		var buf bytes.Buffer
		for _, x := range []uint32{3, 1, 0, n, 1, 2, 3} { // steps, ids, id, n, then 12 bytes of m
			binary.Write(&buf, binary.LittleEndian, x)
		}
		a := NewAdamW(1e-3)
		a.Tick()
		a.Step(0, []float32{1, 2}, []float32{0.5, -0.5})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := a.LoadState(&buf)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("n=%d: LoadState error %v, want io.ErrUnexpectedEOF", n, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("n=%d: LoadState allocated %d bytes for a 28-byte stream", n, grew)
		}
		if l, ok := a.MomentLen(0); a.StepCount() != 1 || !ok || l != 2 {
			t.Fatalf("n=%d: failed load changed the state: steps %d, moments %d %v", n, a.StepCount(), l, ok)
		}
	}
}

func TestAdamWLoadStateTruncated(t *testing.T) {
	a := NewAdamW(1e-3)
	a.Tick()
	a.Step(0, make([]float32, 5), []float32{1, 2, 3, 4, 5})
	var buf bytes.Buffer
	if err := a.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if err := NewAdamW(1e-3).LoadState(bytes.NewReader(full[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d bytes: error %v, want io.ErrUnexpectedEOF", cut, len(full), err)
		}
	}
}

// TestAdamWLoadStateMultiChunk round-trips moments around and past
// loadChunk: the restored moments are bit-equal and have no spare capacity.
func TestAdamWLoadStateMultiChunk(t *testing.T) {
	a := NewAdamW(1e-3)
	a.Tick()
	sizes := []int{1, loadChunk - 1, loadChunk, loadChunk + 1, 5*loadChunk + 3}
	for id, n := range sizes {
		g := make([]float32, n)
		for j := range g {
			g[j] = float32(j%97) - 48
		}
		a.Step(id, make([]float32, n), g)
	}
	var buf bytes.Buffer
	if err := a.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	b := NewAdamW(1e-3)
	if err := b.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	for id, n := range sizes {
		for _, pair := range [][2][]float32{{a.m[id], b.m[id]}, {a.v[id], b.v[id]}} {
			want, got := pair[0], pair[1]
			if len(got) != n || cap(got) != n {
				t.Fatalf("id %d: restored moment len %d cap %d, want %d", id, len(got), cap(got), n)
			}
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("id %d [%d]: restored %v, saved %v", id, j, got[j], want[j])
				}
			}
		}
	}
}

func TestAdamWStepPanicsOnLengthMismatch(t *testing.T) {
	for name, step := range map[string]func(a *AdamW){
		"gradient": func(a *AdamW) { a.Step(4, make([]float32, 3), make([]float32, 2)) },
		"moments": func(a *AdamW) {
			a.Step(4, make([]float32, 3), make([]float32, 3))
			a.Step(4, make([]float32, 4), make([]float32, 4))
		},
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "id 4") {
					t.Fatalf("%s mismatch: panic %v, want one naming id 4", name, p)
				}
			}()
			a := NewAdamW(1e-3)
			a.Tick()
			step(a)
		}()
	}
}
