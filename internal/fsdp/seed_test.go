package fsdp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/optim"
	"llama4d/internal/tensor"
)

// seedShard is the copy-based FSDP path the flat-buffer Shard replaced,
// frozen as the oracle: parameters keep their own tensors, and every
// collective flattens them into pooled copies, runs the allocating
// ReduceScatter/AllGather, and unflattens the result. Same padding, same
// shard ownership, same AdamW calls.
type seedShard struct {
	group     *comm.Group
	rank      int
	mode      Mode
	optID     int
	params    []*model.Param
	flatLen   int
	shardLen  int
	gradShard []float32
	opt       *optim.AdamW
	gathered  bool
}

func newSeedShard(group *comm.Group, rank int, mode Mode, params []*model.Param, opt *optim.AdamW, optID int) *seedShard {
	n := 0
	for _, p := range params {
		n += p.W.Len()
	}
	size := group.Size()
	flatLen := (n + size - 1) / size * size
	return &seedShard{
		group: group, rank: rank, mode: mode, optID: optID,
		params: params, flatLen: flatLen, shardLen: flatLen / size,
		gradShard: make([]float32, flatLen/size),
		opt:       opt, gathered: true,
	}
}

func (s *seedShard) flattenWeights() *tensor.Tensor {
	flat := tensor.Get(s.flatLen)
	off := 0
	for _, p := range s.params {
		copy(flat.Data[off:], p.W.Data)
		off += p.W.Len()
	}
	return flat
}

func (s *seedShard) flattenGrads() *tensor.Tensor {
	flat := tensor.Get(s.flatLen)
	off := 0
	for _, p := range s.params {
		copy(flat.Data[off:], p.G.Data)
		p.G.Zero()
		off += p.G.Len()
	}
	return flat
}

func (s *seedShard) unflattenWeights(flat *tensor.Tensor) {
	off := 0
	for _, p := range s.params {
		copy(p.W.Data, flat.Data[off:off+p.W.Len()])
		off += p.W.Len()
	}
}

func (s *seedShard) localShard(flat *tensor.Tensor) []float32 {
	lr := s.group.LocalRank(s.rank)
	return flat.Data[lr*s.shardLen : (lr+1)*s.shardLen]
}

func (s *seedShard) reduceScatterGrads() {
	flat := s.flattenGrads()
	reduced := s.group.ReduceScatter(s.rank, flat.Reshape(s.group.Size(), s.shardLen))
	tensor.Put(flat)
	for i, v := range reduced.Data {
		s.gradShard[i] += v
	}
	tensor.Put(reduced)
}

func (s *seedShard) ownedWeights() []float32 {
	flat := s.flattenWeights()
	owned := append([]float32(nil), s.localShard(flat)...)
	tensor.Put(flat)
	return owned
}

func (s *seedShard) gatherParams() {
	if s.gathered {
		return
	}
	full := s.group.AllGather(s.rank, tensor.FromSlice(s.ownedWeights(), s.shardLen))
	s.unflattenWeights(full)
	tensor.Put(full)
	s.gathered = true
}

func (s *seedShard) releaseParams() {
	if s.mode != ZeRO3 {
		return
	}
	owned := s.ownedWeights()
	for _, p := range s.params {
		p.W.Zero()
	}
	flat := tensor.Get(s.flatLen)
	copy(s.localShard(flat), owned)
	s.unflattenWeights(flat)
	tensor.Put(flat)
	s.gathered = false
}

func (s *seedShard) step() {
	s.reduceScatterGrads()
	flatW := s.flattenWeights()
	local := s.localShard(flatW)
	s.opt.Step(s.optID, local, s.gradShard)
	for i := range s.gradShard {
		s.gradShard[i] = 0
	}
	updated := s.group.AllGather(s.rank, tensor.FromSlice(local, s.shardLen))
	tensor.Put(flatW)
	s.unflattenWeights(updated)
	tensor.Put(updated)
	s.gathered = true
	if s.mode == ZeRO3 {
		s.releaseParams()
	}
}

// oracleUnits builds the grid's parameter units from a fixed seed. Unit
// sizes 11, 5, 9 and 6 leave padding live for groups of 2 and 3, and two
// parameters straddle shard boundaries.
func oracleUnits() [][]*model.Param {
	rng := rand.New(rand.NewSource(41))
	p := func(name string, shape ...int) *model.Param {
		return model.NewParam(name, tensor.RandN(rng, 0.5, shape...))
	}
	return [][]*model.Param{
		{p("a", 7), p("b", 2, 2)},
		{p("c", 5)},
		{p("d", 3, 3)},
		{p("e", 6)},
	}
}

// fakeBackward accumulates a gradient into every parameter of a unit. It
// reads the weights, so a unit whose ZeRO-3 gather went wrong produces
// wrong gradients; the rest is a deterministic per-(rank, step, micro-batch,
// element) term that makes ranks differ. With specials, the first
// parameter's element 2 is left −0 (a sum that starts at +0 can never
// reach it, so it is set) and element 5 accumulates a NaN: what a
// reduction's +0 + g changes and what it must carry.
func fakeBackward(unit []*model.Param, rank, step, mb int, specials bool) {
	for pi, p := range unit {
		for i, w := range p.W.Data {
			seed := float64(((rank*7+step)*5+mb)*31 + pi*13 + i)
			p.G.Data[i] += 0.5*w + float32(math.Sin(seed)*math.Exp2(float64(i%7-3)))
		}
	}
	if specials {
		g := unit[0].G.Data
		g[2] = float32(math.Copysign(0, -1))
		g[5] += float32(math.NaN())
	}
}

func momentBytes(t *testing.T, opt *optim.AdamW) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := opt.SaveState(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// sameBitsButZeroSign is sameBits, except that +0 and −0 match.
func sameBitsButZeroSign(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && (a[i] != 0 || b[i] != 0) {
			return false
		}
	}
	return true
}

// TestShardedMatchesSeedOracleBitwise runs ZeRO-1/2/3 over groups of 1, 2
// and 3 ranks, each blocking, with overlapped gradient reduce-scatters, and
// with a one-unit ZeRO-3 gather prefetch, for three steps of two
// micro-batches through Sharded, against the frozen copy-based path. After
// every backward phase the gradients and gradient shards, and after every
// step the weights and both AdamW moments, must be Float32bits-equal.
//
// ZeRO-1 over one rank reduces nothing: its gradient shard is the flat
// gradient buffer, so between backward and Step it holds the accumulated
// gradients where the seed's shard is still empty. There the gradient the
// optimizer consumes is compared instead with the seed's reduced shard,
// reduced early for the comparison (its Step then reduces zeros into a
// shard without −0, which changes no bit). The two differ only in the sign
// of zero: the seed's +0 + g turns the −0 that n1's fakeBackward plants
// into +0. The weights and moments after the step, which hold AdamW's
// argument that the sign does not matter, stay Float32bits-equal.
func TestShardedMatchesSeedOracleBitwise(t *testing.T) {
	overlaps := []struct {
		name     string
		async    bool
		prefetch int
	}{{"blocking", false, 0}, {"async-grads", true, 0}, {"prefetch1", false, 1}}
	for _, mode := range []Mode{ZeRO1, ZeRO2, ZeRO3} {
		for _, n := range []int{1, 2, 3} {
			for _, ov := range overlaps {
				t.Run(fmt.Sprintf("%v/n%d/%s", mode, n, ov.name), func(t *testing.T) {
					runOracleGrid(t, mode, n, ov.async, ov.prefetch)
				})
			}
		}
	}
}

func runOracleGrid(t *testing.T, mode Mode, n int, async bool, prefetch int) {
	const steps, mbs = 3, 2
	hw, hg := fullGroup(n)
	ow, og := fullGroup(n)
	heads := make([]*Sharded, n)
	headOpts := make([]*optim.AdamW, n)
	seeds := make([][]*seedShard, n)
	seedOpts := make([]*optim.AdamW, n)
	headUnits := make([][][]*model.Param, n)
	seedUnits := make([][][]*model.Param, n)
	for r := 0; r < n; r++ {
		headUnits[r], seedUnits[r] = oracleUnits(), oracleUnits()
		headOpts[r], seedOpts[r] = optim.NewAdamW(1e-2), optim.NewAdamW(1e-2)
		heads[r] = NewSharded(hg, r, mode, headUnits[r], headOpts[r])
		heads[r].AsyncGrads = async
		heads[r].Prefetch = prefetch
		for u, ps := range seedUnits[r] {
			seeds[r] = append(seeds[r], newSeedShard(og, r, mode, ps, seedOpts[r], u))
		}
	}
	spmd := func(w *comm.World, body func(rank int)) {
		t.Helper()
		if err := w.RunSPMD(body); err != nil {
			t.Fatal(err)
		}
	}
	compareBy := func(same func(a, b []float32) bool, what string, step int, headOf, seedOf func(r, u, i int) []float32) {
		t.Helper()
		for r := 0; r < n; r++ {
			for u := range seedUnits[r] {
				for i := range seedUnits[r][u] {
					if !same(headOf(r, u, i), seedOf(r, u, i)) {
						t.Fatalf("step %d rank %d unit %d: %s %d differs from the seed path", step, r, u, what, i)
					}
				}
			}
		}
	}
	compare := func(what string, step int, headOf, seedOf func(r, u, i int) []float32) {
		t.Helper()
		compareBy(sameBits, what, step, headOf, seedOf)
	}
	aliased := mode == ZeRO1 && n == 1
	for step := 0; step < steps; step++ {
		spmd(hw, func(rank int) {
			sh := heads[rank]
			if mode == ZeRO3 {
				if prefetch > 0 {
					sh.StartGather()
				} else {
					sh.GatherParams()
				}
			}
			for mb := 0; mb < mbs; mb++ {
				for u, ps := range headUnits[rank] {
					sh.EnsureUnit(u)
					fakeBackward(ps, rank, step, mb, n == 1 && u == 0)
				}
				if mode != ZeRO1 {
					sh.ReduceScatterGrads()
				}
			}
			sh.DrainGrads()
		})
		spmd(ow, func(rank int) {
			if mode == ZeRO3 {
				for _, s := range seeds[rank] {
					s.gatherParams()
				}
			}
			for mb := 0; mb < mbs; mb++ {
				for u, ps := range seedUnits[rank] {
					fakeBackward(ps, rank, step, mb, n == 1 && u == 0)
				}
				if mode != ZeRO1 {
					for _, s := range seeds[rank] {
						s.reduceScatterGrads()
					}
				}
			}
		})
		compare("gradient", step,
			func(r, u, i int) []float32 { return headUnits[r][u][i].G.Data },
			func(r, u, i int) []float32 { return seedUnits[r][u][i].G.Data })
		if aliased {
			spmd(ow, func(rank int) {
				for _, s := range seeds[rank] {
					s.reduceScatterGrads()
				}
			})
			compareBy(sameBitsButZeroSign, "consumed gradient", step,
				func(r, u, _ int) []float32 { return heads[r].Units[u].gradShard },
				func(r, u, _ int) []float32 { return seeds[r][u].gradShard })
			if g := heads[0].Units[0].gradShard[2]; g != 0 || !math.Signbit(float64(g)) {
				t.Fatalf("step %d: the planted −0 reaches the optimizer as %v", step, g)
			}
		} else {
			compare("gradient shard", step,
				func(r, u, _ int) []float32 { return heads[r].Units[u].gradShard },
				func(r, u, _ int) []float32 { return seeds[r][u].gradShard })
		}

		spmd(hw, func(rank int) {
			headOpts[rank].Tick()
			heads[rank].Step()
		})
		spmd(ow, func(rank int) {
			seedOpts[rank].Tick()
			for _, s := range seeds[rank] {
				s.step()
			}
		})
		compare("weight", step,
			func(r, u, i int) []float32 { return headUnits[r][u][i].W.Data },
			func(r, u, i int) []float32 { return seedUnits[r][u][i].W.Data })
		for r := 0; r < n; r++ {
			if !bytes.Equal(momentBytes(t, headOpts[r]), momentBytes(t, seedOpts[r])) {
				t.Fatalf("step %d rank %d: AdamW moments differ from the seed path", step, r)
			}
		}
	}
	if mode == ZeRO3 {
		spmd(hw, func(rank int) { heads[rank].GatherParams() })
		spmd(ow, func(rank int) {
			for _, s := range seeds[rank] {
				s.gatherParams()
			}
		})
		compare("gathered weight", steps,
			func(r, u, i int) []float32 { return headUnits[r][u][i].W.Data },
			func(r, u, i int) []float32 { return seedUnits[r][u][i].W.Data })
	}
}
