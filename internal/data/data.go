// Package data generates the synthetic training corpus of the reproduction.
//
// The paper's workloads are token sequences packed from documents, with an
// end-of-sequence id marking document boundaries; the document mask (§4)
// restricts attention to tokens of the same document, and the document
// *length distribution* is what drives the attention-workload imbalance of
// Fig 14. This package provides a deterministic generator with a
// controllable geometric document-length distribution, plus the loaders that
// shard batches across data-parallel groups ("Dataloaders" in §4: every CP
// rank still receives the full sequence).
package data

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"llama4d/internal/attention"
	"llama4d/internal/model"
)

// Batcher is the data-source interface the trainer consumes: Generator
// (synthetic) and PackedSet (a workload-balanced plan) implement it.
type Batcher interface {
	// DPBatch returns the samples of one data-parallel group for one step.
	DPBatch(step int64, gbs, ndp, dpRank int) []*model.Sample
}

var _ Batcher = (*Generator)(nil)

// Generator produces deterministic synthetic samples. Sample(i) is a pure
// function of (Seed, i), so any partition of sample indices across ranks is
// reproducible and comparable against a sequential run.
type Generator struct {
	Vocab     int
	Seq       int
	AvgDocLen int   // mean of the geometric document-length distribution
	Seed      int64 // corpus seed

	// LongDocFrac is the probability that a document is drawn from the
	// heavy tail instead (uniform in [Seq/4, Seq]). Production corpora mix
	// many short documents with ones spanning the whole context window —
	// the paper notes the slowest CP rank "often processes the full long
	// sequence without an eos_id" (§4), which drives Fig 14's imbalance.
	LongDocFrac float64
}

// EOS returns the end-of-sequence token id (the last vocabulary entry).
func (g *Generator) EOS() int { return g.Vocab - 1 }

// DocLengths samples document lengths until they cover at least seq tokens,
// using a geometric distribution with mean AvgDocLen.
func (g *Generator) DocLengths(rng *rand.Rand) []int {
	var lengths []int
	covered := 0
	p := 1 / float64(g.AvgDocLen)
	for covered < g.Seq {
		var l int
		if g.LongDocFrac > 0 && rng.Float64() < g.LongDocFrac {
			l = g.Seq/4 + rng.Intn(3*g.Seq/4+1)
		} else {
			// Geometric sample: Bernoulli(p) trials to first success.
			l = 1
			for rng.Float64() > p {
				l++
			}
		}
		if l > g.Seq {
			l = g.Seq
		}
		lengths = append(lengths, l)
		covered += l
	}
	return lengths
}

// Sample generates the index-th sample of the corpus: documents packed into
// a sequence of exactly Seq tokens, each document ending with EOS, targets
// shifted by one (the final position's target is ignored).
func (g *Generator) Sample(index int64) *model.Sample {
	rng := rand.New(rand.NewSource(g.Seed*1_000_003 + index))
	lengths := g.DocLengths(rng)

	tokens := make([]int, 0, g.Seq)
	contentVocab := g.Vocab - 1 // EOS excluded from content tokens
	for _, l := range lengths {
		// A learnable in-document process: an affine walk seeded per doc.
		cur := rng.Intn(contentVocab)
		step := 1 + rng.Intn(6)
		for i := 0; i < l-1 && len(tokens) < g.Seq; i++ {
			tokens = append(tokens, cur)
			cur = (cur*3 + step) % contentVocab
		}
		if len(tokens) < g.Seq {
			tokens = append(tokens, g.EOS())
		}
		if len(tokens) >= g.Seq {
			break
		}
	}
	for len(tokens) < g.Seq {
		tokens = append(tokens, g.EOS())
	}

	targets := make([]int, g.Seq)
	for i := 0; i < g.Seq-1; i++ {
		targets[i] = tokens[i+1]
	}
	targets[g.Seq-1] = -1

	return &model.Sample{
		Tokens:  tokens,
		DocIDs:  attention.DocIDsFromEOS(tokens, g.EOS()),
		Targets: targets,
	}
}

const generatorStateMagic = uint32(0x4C344447) // "L4DG"

// SaveState serializes the generator. Because Sample(i) is a pure function
// of (Seed, i), the configuration and seed *are* the complete RNG state of
// the data pipeline: a coordinated checkpoint (internal/ft) that carries
// this stream resumes with bitwise-identical batches on every future step.
func (g *Generator) SaveState(w io.Writer) error {
	for _, v := range []uint64{
		uint64(generatorStateMagic),
		uint64(g.Vocab), uint64(g.Seq), uint64(g.AvgDocLen),
		uint64(g.Seed), math.Float64bits(g.LongDocFrac),
	} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// LoadState restores a SaveState stream, replacing all generator fields.
// Reads exactly one stream, so it composes with concatenated checkpoint
// sections.
func (g *Generator) LoadState(r io.Reader) error {
	var vs [6]uint64
	for i := range vs {
		if err := binary.Read(r, binary.LittleEndian, &vs[i]); err != nil {
			return err
		}
	}
	if uint32(vs[0]) != generatorStateMagic {
		return fmt.Errorf("data: bad generator state magic %#x", vs[0])
	}
	g.Vocab, g.Seq, g.AvgDocLen = int(vs[1]), int(vs[2]), int(vs[3])
	g.Seed = int64(vs[4])
	g.LongDocFrac = math.Float64frombits(vs[5])
	return nil
}

// GlobalBatch returns the gbs samples of a training step in corpus order.
func (g *Generator) GlobalBatch(step int64, gbs int) []*model.Sample {
	out := make([]*model.Sample, gbs)
	for i := range out {
		out[i] = g.Sample(step*int64(gbs) + int64(i))
	}
	return out
}

// DPBatch returns the slice of the step's global batch owned by one
// data-parallel group: group r takes samples [r*bs, (r+1)*bs) where
// bs = gbs/ndp. A sequential run over GlobalBatch therefore sees exactly
// the union of all DPBatch results, enabling bitwise parallel-vs-sequential
// comparisons.
func (g *Generator) DPBatch(step int64, gbs, ndp, dpRank int) []*model.Sample {
	bs := gbs / ndp
	out := make([]*model.Sample, bs)
	for i := range out {
		out[i] = g.Sample(step*int64(gbs) + int64(dpRank*bs+i))
	}
	return out
}

// Env returns the attention environment for a sample on a rank owning the
// full sequence: document mask plus identity positions.
func Env(s *model.Sample) *model.Env {
	return model.SeqEnv(len(s.Tokens), attention.Document{DocID: s.DocIDs})
}

// CausalEnv ignores document boundaries (full causal mask) — the baseline
// workload in Fig 11's comparison.
func CausalEnv(s *model.Sample) *model.Env {
	return model.SeqEnv(len(s.Tokens), attention.Causal{})
}
