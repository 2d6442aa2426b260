package serve

import (
	"llama4d/internal/attention"
	"llama4d/internal/comm"
	"llama4d/internal/model"
	"llama4d/internal/tensor"
	"llama4d/internal/tp"
)

// Options configures an Engine.
type Options struct {
	// PageSize is the KV page length in tokens (default 16).
	PageSize int
	// PageBudget caps the pages leased at once, across all layers
	// (default: enough for MaxSeq tokens on 64 sequences).
	PageBudget int
	// Group is the TP group, nil for a sequential engine. Rank is this
	// rank's global rank within the group's world.
	Group *comm.Group
	Rank  int
}

// Engine is one rank's forward-only serving engine: the model's blocks, the
// paged KV-cache, and the prefill/decode entry points the scheduler drives.
// The transformer itself is internal/model's: a sequential engine runs the
// model's own blocks, an engine under a TP group runs tp.ShardBlock's, and
// every norm, projection, rotation, attention head and activation goes
// through model's forward-only surface (Block.ForwardOnly for the packed
// prefill and the oracle; RMSNorm.Apply, Attention.QKV, MultiHead and
// FFN.Hidden for the decode step). What is the engine's own is where K/V
// live (pages), when the decode batch's TP sums are issued, and sampling.
//
// Determinism contract: every kernel model composes is row-independent with
// a fixed per-element accumulation order (matmul accumulates strictly
// increasing k, masked softmax adds exact +0 terms for disallowed columns,
// the PV product zero-skips them, RMSNorm/RoPE/SwiGLU are per-row), and the
// chunked all-reduce sums elementwise in local-rank order, so splitting a
// batch into rows, packing prompts into one ragged prefill, or chunking the
// decode batch for overlap never changes a single logit bit relative to the
// same-TP single-sequence full forward — which is itself the training
// stack's forward, by construction rather than by a mirrored copy. This is
// the serving extension of the training stack's §6.2 determinism contract.
type Engine struct {
	Cfg model.Config
	KV  *KVCache

	group *comm.Group
	rank  int

	embed  *model.Embedding // replicated (the model's own)
	head   *model.Head      // replicated (the model's own)
	blocks []*model.Block

	// OnLogits, if set, observes every generated position's full logits row
	// before sampling — the bitwise-contract test hook.
	OnLogits func(seq *SeqState, pos int, logits []float32)
}

// NewEngine builds a serving engine from a trained (or freshly initialised)
// sequential model. With a nil group the engine runs the model's own blocks;
// under a group each block is tp.ShardBlock's Megatron shard of it (which
// panics when heads or hidden do not divide by the TP degree).
func NewEngine(m *model.Model, opts Options) *Engine {
	cfg := m.Cfg
	e := &Engine{Cfg: cfg, group: opts.Group, rank: opts.Rank, embed: m.Embed, head: m.Head, blocks: m.Blocks}
	if opts.Group != nil {
		ctx := &tp.Ctx{Group: opts.Group, Rank: opts.Rank}
		e.blocks = make([]*model.Block, len(m.Blocks))
		for l, b := range m.Blocks {
			e.blocks[l] = tp.ShardBlock(b, ctx)
		}
	}
	pageSize := opts.PageSize
	if pageSize <= 0 {
		pageSize = 16
	}
	budget := opts.PageBudget
	if budget <= 0 {
		budget = cfg.NLayers * 64 * ((cfg.MaxSeq + pageSize - 1) / pageSize)
	}
	e.KV = NewKVCache(cfg.NLayers, pageSize, cfg.NKVHeads/e.TP()*cfg.HeadDim(), budget)
	return e
}

// TP returns the engine's tensor-parallel degree.
func (e *Engine) TP() int {
	if e.group == nil {
		return 1
	}
	return e.group.Size()
}

// forward runs the whole stack over tokens (model.Block.ForwardOnly per
// layer, which defines ropePos, maskPos and kv) without touching the cache,
// except through kv: each layer in turn calls it with its post-RoPE K and
// full V ([len(tokens), nkvL·hd]) — the prefill path's hook for writing
// pages. Returns the final hidden states [len(tokens), dim]; caller owns.
func (e *Engine) forward(tokens []int, ropePos, maskPos []int, mask attention.Mask, kv func(k, v *tensor.Tensor)) *tensor.Tensor {
	x, _ := e.embed.Forward(tokens)
	for _, b := range e.blocks {
		b.ForwardOnly(x, ropePos, mask, maskPos, kv)
	}
	return x
}

// logits projects hidden rows to the (replicated) vocabulary. Caller owns
// the result.
func (e *Engine) logits(x *tensor.Tensor) *tensor.Tensor {
	hN := e.head.Norm.Apply(x)
	lg, _ := e.head.Proj.Forward(hN, nil)
	tensor.Put(hN)
	return lg
}

// argmaxRow returns the greedy token of one logits row; ties resolve to the
// lowest index, so every TP rank (holding bitwise-identical replicated
// logits) samples the same token without communicating.
func argmaxRow(row []float32) int {
	best, bestV := 0, row[0]
	for j, v := range row[1:] {
		if v > bestV {
			best, bestV = j+1, v
		}
	}
	return best
}

// FullForwardLogits is the bitwise oracle: a dense causal full forward of
// one sequence with no cache, returning the logits of every position
// [len(tokens), vocab]. Run at the same TP degree as the engine under test
// (the all-reduce changes float association across degrees). Caller owns.
func (e *Engine) FullForwardLogits(tokens []int) *tensor.Tensor {
	pos := attention.Iota(len(tokens))
	x := e.forward(tokens, pos, pos, attention.Causal{}, nil)
	lg := e.logits(x)
	tensor.Put(x)
	return lg
}

// Prefill runs the ragged packed prefill over the sequences: every
// sequence's prompt (plus, after preemption, its already-generated tokens)
// concatenated into one batch under a Document mask, so the blocked
// attention engine classifies cross-sequence tiles empty and skips them —
// the serving twin of training's packed-document batches
// (attention.BuildGridFromStarts via the Document grid case). Each
// sequence's KV lands in its pages, and its next token is sampled from the
// last row's logits. The caller must have Reserved capacity for
// len(Prompt)+len(Output) tokens per sequence.
func (e *Engine) Prefill(seqs []*SeqState) {
	if len(seqs) == 0 {
		return
	}
	var tokens, ropePos, docIDs []int
	offs := make([]int, len(seqs)+1) // sequence i owns packed rows [offs[i], offs[i+1])
	for i, s := range seqs {
		if s.Cache.Used() != 0 {
			panic("serve: Prefill of a sequence with committed KV")
		}
		for p, t := range s.feedTokens() {
			tokens = append(tokens, t)
			ropePos = append(ropePos, p)
			docIDs = append(docIDs, i)
		}
		offs[i+1] = len(tokens)
	}

	layer := 0 // the hook runs once per layer, in layer order
	x := e.forward(tokens, ropePos, attention.Iota(len(tokens)), attention.Document{DocID: docIDs}, func(k, v *tensor.Tensor) {
		for i, s := range seqs {
			e.KV.Append(s.Cache, layer, k, v, offs[i], offs[i+1])
		}
		layer++
	})

	// Only the last row of each sequence feeds sampling; extracting rows
	// before the head projection is bitwise-safe (both are row-wise).
	last := tensor.GetUninit(len(seqs), e.Cfg.Dim)
	for i, s := range seqs {
		e.KV.Advance(s.Cache, offs[i+1]-offs[i])
		copy(last.Row(i), x.Row(offs[i+1]-1))
	}
	tensor.Put(x)
	lg := e.logits(last)
	tensor.Put(last)
	for i, s := range seqs {
		row := lg.Row(i)
		if e.OnLogits != nil {
			e.OnLogits(s, s.Cache.Used()-1, row)
		}
		s.Output = append(s.Output, argmaxRow(row))
	}
	tensor.Put(lg)
}

// decodeChunks returns how many chunks a decode batch of b rows splits
// into: two under TP (so the second chunk's compute hides the first
// chunk's nonblocking all-reduce), one otherwise. ServeSim mirrors this
// rule; changing it requires changing both.
func (e *Engine) decodeChunks(b int) int {
	if e.TP() > 1 && b >= 2 {
		return 2
	}
	return 1
}

// chunkBounds splits [0, n) into nc contiguous chunks (first chunks one
// longer when uneven).
func chunkBounds(n, nc int) [][2]int {
	out := make([][2]int, 0, nc)
	lo := 0
	for c := 0; c < nc; c++ {
		size := n / nc
		if c < n%nc {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}

// DecodeStep advances every sequence by one token: each feeds its last
// generated token, attends over its paged KV (its whole history), and
// samples the next token from bitwise-replicated logits. The batch is
// chunked and each chunk's output-projection all-reduce is issued
// nonblocking, overlapping with the next chunk's attention compute — the
// serving use of the PR 4 handle primitives. The caller must have Reserved
// one token of capacity per sequence.
func (e *Engine) DecodeStep(seqs []*SeqState) {
	if len(seqs) == 0 {
		return
	}
	bsz := len(seqs)
	tokens := make([]int, bsz)
	pos := make([]int, bsz)
	for i, s := range seqs {
		tokens[i] = s.Output[len(s.Output)-1]
		pos[i] = s.Cache.Used()
	}

	nc := e.decodeChunks(bsz)
	bounds := chunkBounds(bsz, nc)
	partials := make([]*tensor.Tensor, nc)
	handles := make([]*comm.Handle, nc)

	x, _ := e.embed.Forward(tokens)
	for l, b := range e.blocks {
		q, k, v := b.Attn.QKV(b.Norm1.Apply(x), pos)
		for i, s := range seqs {
			e.KV.Append(s.Cache, l, k, v, i, i+1)
		}
		tensor.Put(k, v)

		// Attention chunk by chunk, each row over its own paged history;
		// under TP each chunk's partial output projection all-reduces
		// nonblocking while the next chunk computes.
		for c, cb := range bounds {
			lo, hi := cb[0], cb[1]
			concat := tensor.GetUninit(hi-lo, q.Cols())
			for i := lo; i < hi; i++ {
				s := seqs[i]
				t := s.Cache.Used() + 1 // history plus the row staged above
				kBuf := tensor.GetUninit(t, e.KV.Width)
				vBuf := tensor.GetUninit(t, e.KV.Width)
				e.KV.Gather(s.Cache, l, t, kBuf, vBuf)
				row := model.MultiHead(q.RowSlice(i, i+1), kBuf, vBuf, b.Attn.NHeads, attention.Causal{}, pos[i:i+1], nil, nil)
				copy(concat.Row(i-lo), row.Data)
				tensor.Put(row, kBuf, vBuf)
			}
			partials[c], handles[c] = e.partialSum(b.Attn.Wo, concat)
			tensor.Put(concat)
		}
		tensor.Put(q)
		ao := collectChunks(bsz, e.Cfg.Dim, bounds, partials, handles)
		x.Add(ao)
		tensor.Put(ao)

		// FFN, chunked the same way.
		n2 := b.Norm2.Apply(x)
		for c, cb := range bounds {
			hid := b.FFN.Hidden(n2.RowSlice(cb[0], cb[1])) // a view: never Put
			partials[c], handles[c] = e.partialSum(b.FFN.W2, hid)
			tensor.Put(hid)
		}
		tensor.Put(n2)
		fo := collectChunks(bsz, e.Cfg.Dim, bounds, partials, handles)
		x.Add(fo)
		tensor.Put(fo)
	}
	for _, s := range seqs {
		e.KV.Advance(s.Cache, 1)
	}

	lg := e.logits(x)
	tensor.Put(x)
	for i, s := range seqs {
		row := lg.Row(i)
		if e.OnLogits != nil {
			e.OnLogits(s, pos[i], row)
		}
		s.Output = append(s.Output, argmaxRow(row))
	}
	tensor.Put(lg)
}

// partialSum runs a chunk through a block's output or down projection and
// starts its sum over the TP group: this rank's term of the row-parallel
// product with the all-reduce issued nonblocking (the handle), or, with no
// group, the model's own linear and a nil handle.
func (e *Engine) partialSum(l model.Layer, x *tensor.Tensor) (*tensor.Tensor, *comm.Handle) {
	if e.group == nil {
		y, _ := l.Forward(x, nil)
		return y, nil
	}
	partial := l.(*tp.RowParallelLinear).Partial(x)
	return partial, e.group.IAllReduce(e.rank, partial)
}

// collectChunks waits on the chunks' all-reduce handles in issue order and
// assembles the full-batch rows. Row assembly is a copy, so chunking is
// bitwise invisible; the handle Waits all happen after every issue, so the
// pattern is deadlock-free at any TP degree.
func collectChunks(rows, cols int, bounds [][2]int, partials []*tensor.Tensor, handles []*comm.Handle) *tensor.Tensor {
	out := tensor.GetUninit(rows, cols)
	for c, b := range bounds {
		res := partials[c]
		if handles[c] != nil {
			res = handles[c].Wait()
		}
		for i := b[0]; i < b[1]; i++ {
			copy(out.Row(i), res.Row(i-b[0]))
		}
		if handles[c] != nil {
			tensor.Put(res)
		}
		tensor.Put(partials[c])
		partials[c], handles[c] = nil, nil
	}
	return out
}
