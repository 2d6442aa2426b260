// Package optim implements the optimizer of the reproduction: AdamW with
// FP32 master states (the precision policy of the paper's §6.2). It operates
// on flat float32 slices so FSDP can run it on sharded views of a flat
// parameter buffer (ZeRO-1's sharded optimizer states).
package optim

import (
	"encoding/binary"
	"io"
	"math"
	"sort"
)

// AdamW is Adam with decoupled weight decay. Moments are kept in float32
// (full precision relative to BF16 weights), matching the paper's FP32
// optimizer-state policy.
type AdamW struct {
	LR          float32
	Beta1       float32
	Beta2       float32
	Eps         float32
	WeightDecay float32

	steps int
	m, v  map[int][]float32
}

// NewAdamW creates an AdamW optimizer with the given hyper-parameters.
func NewAdamW(lr float32) *AdamW {
	return &AdamW{
		LR: lr, Beta1: 0.9, Beta2: 0.95, Eps: 1e-8, WeightDecay: 0.1,
		m: make(map[int][]float32), v: make(map[int][]float32),
	}
}

// Tick advances the shared step counter; call exactly once per training
// step, before Step calls for that step.
func (a *AdamW) Tick() { a.steps++ }

// StepCount returns the number of completed optimizer steps.
func (a *AdamW) StepCount() int { return a.steps }

// Step applies one update to w given gradient g. The id distinguishes
// independent parameter slices, which keep separate moments.
func (a *AdamW) Step(id int, w, g []float32) {
	m, ok := a.m[id]
	if !ok {
		m = make([]float32, len(w))
		a.m[id] = m
	}
	v, ok := a.v[id]
	if !ok {
		v = make([]float32, len(w))
		a.v[id] = v
	}
	t := float64(a.steps)
	if t == 0 {
		t = 1
	}
	bc1 := float32(1 - math.Pow(float64(a.Beta1), t))
	bc2 := float32(1 - math.Pow(float64(a.Beta2), t))
	for i := range w {
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g[i]
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g[i]*g[i]
		mh := m[i] / bc1
		vh := v[i] / bc2
		w[i] -= a.LR * (mh/(float32(math.Sqrt(float64(vh)))+a.Eps) + a.WeightDecay*w[i])
	}
}

// SaveState writes the optimizer's step counter and moment buffers. Each
// rank persists its own (sharded) state, exactly as production sharded
// optimizer checkpoints do.
func (a *AdamW) SaveState(w io.Writer) error {
	ids := make([]int, 0, len(a.m))
	for id := range a.m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if err := binary.Write(w, binary.LittleEndian, uint32(a.steps)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		if err := binary.Write(w, binary.LittleEndian, uint32(id)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(a.m[id]))); err != nil {
			return err
		}
		for _, buf := range [][]float32{a.m[id], a.v[id]} {
			for _, x := range buf {
				if err := binary.Write(w, binary.LittleEndian, math.Float32bits(x)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// LoadState restores a SaveState stream, replacing all moments.
func (a *AdamW) LoadState(r io.Reader) error {
	var steps, nIDs uint32
	if err := binary.Read(r, binary.LittleEndian, &steps); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &nIDs); err != nil {
		return err
	}
	a.steps = int(steps)
	a.m = make(map[int][]float32, nIDs)
	a.v = make(map[int][]float32, nIDs)
	for i := 0; i < int(nIDs); i++ {
		var id, n uint32
		if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
			return err
		}
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return err
		}
		buf := make([]byte, 8*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		m := make([]float32, n)
		v := make([]float32, n)
		for j := 0; j < int(n); j++ {
			m[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
			v[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*int(n)+4*j:]))
		}
		a.m[int(id)] = m
		a.v[int(id)] = v
	}
	return nil
}

// WarmupCosine returns the learning-rate schedule used for Llama 3
// pre-training: linear warm-up from zero to peak over warmupSteps, then
// cosine decay to minLR at totalSteps (held constant afterwards).
func WarmupCosine(peak, minLR float64, warmupSteps, totalSteps int) func(step int) float64 {
	return func(step int) float64 {
		if warmupSteps > 0 && step < warmupSteps {
			return peak * float64(step+1) / float64(warmupSteps)
		}
		if step >= totalSteps {
			return minLR
		}
		frac := float64(step-warmupSteps) / float64(totalSteps-warmupSteps)
		return minLR + 0.5*(peak-minLR)*(1+math.Cos(math.Pi*frac))
	}
}
