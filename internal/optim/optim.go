// Package optim implements the optimizer of the reproduction: AdamW with
// FP32 master states (the precision policy of the paper's §6.2). It operates
// on flat float32 slices so FSDP can run it on sharded views of a flat
// parameter buffer (ZeRO-1's sharded optimizer states).
package optim

import (
	"encoding/binary"
	"fmt"
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
// independent parameter slices, which keep separate moments. The update is
// update's, lane-wise on the vector kernel where the CPU has one; len(g) and
// an existing id's moments must match len(w).
func (a *AdamW) Step(id int, w, g []float32) {
	if len(g) != len(w) {
		panic(fmt.Sprintf("optim: AdamW.Step id %d: %d gradients for %d weights", id, len(g), len(w)))
	}
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
	if len(m) != len(w) || len(v) != len(w) {
		panic(fmt.Sprintf("optim: AdamW.Step id %d: moments of %d and %d elements for %d weights", id, len(m), len(v), len(w)))
	}
	t := float64(a.steps)
	if t == 0 {
		t = 1
	}
	a.update(w, g, m, v, float32(1-math.Pow(float64(a.Beta1), t)), float32(1-math.Pow(float64(a.Beta2), t)))
}

// MomentLen reports the length of id's moment buffers, and false when id
// has none.
func (a *AdamW) MomentLen(id int) (int, bool) {
	m, ok := a.m[id]
	return len(m), ok
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

// LoadState restores a SaveState stream, replacing all moments. Moment
// data is read in bounded chunks, so a stream that ends before its headers'
// lengths are met returns io.ErrUnexpectedEOF having allocated no more than
// it read.
func (a *AdamW) LoadState(r io.Reader) error {
	read := func(x *uint32) error {
		err := binary.Read(r, binary.LittleEndian, x)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	var steps, nIDs uint32
	if err := read(&steps); err != nil {
		return err
	}
	if err := read(&nIDs); err != nil {
		return err
	}
	ms, vs := make(map[int][]float32), make(map[int][]float32)
	for i := uint32(0); i < nIDs; i++ {
		var id, n uint32
		if err := read(&id); err != nil {
			return err
		}
		if err := read(&n); err != nil {
			return err
		}
		m, err := readFloats(r, n)
		if err != nil {
			return err
		}
		v, err := readFloats(r, n)
		if err != nil {
			return err
		}
		ms[int(id)], vs[int(id)] = m, v
	}
	a.steps, a.m, a.v = int(steps), ms, vs
	return nil
}

// loadChunk bounds how many floats readFloats reads, and first allocates,
// at a time.
const loadChunk = 1 << 14

// readFloats reads n little-endian float32s, at most loadChunk at a time.
// The result grows by doubling, capped at n, so what it holds is never more
// than twice what was read and the finished slice has capacity exactly n.
func readFloats(r io.Reader, n uint32) ([]float32, error) {
	buf := make([]byte, 4*min(n, loadChunk))
	out := make([]float32, 0, min(n, loadChunk))
	for left := n; left > 0; {
		b := buf[:4*min(left, loadChunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if len(out) == cap(out) {
			grown := make([]float32, len(out), min(int(n), 2*cap(out)))
			copy(grown, out)
			out = grown
		}
		for j := 0; j < len(b); j += 4 {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(b[j:])))
		}
		left -= uint32(len(b) / 4)
	}
	return out, nil
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
