package data

import (
	"bytes"
	"math/rand"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/model"
)

func testGen() *Generator {
	return &Generator{Vocab: 64, Seq: 128, AvgDocLen: 16, Seed: 7}
}

func TestSampleDeterministic(t *testing.T) {
	g := testGen()
	a, b := g.Sample(5), g.Sample(5)
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] || a.DocIDs[i] != b.DocIDs[i] || a.Targets[i] != b.Targets[i] {
			t.Fatal("Sample must be deterministic in its index")
		}
	}
	c := g.Sample(6)
	same := true
	for i := range a.Tokens {
		if a.Tokens[i] != c.Tokens[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different indices must give different samples")
	}
}

func TestSampleShapeAndRanges(t *testing.T) {
	g := testGen()
	s := g.Sample(0)
	if len(s.Tokens) != g.Seq || len(s.DocIDs) != g.Seq || len(s.Targets) != g.Seq {
		t.Fatal("sample lengths wrong")
	}
	for i, tok := range s.Tokens {
		if tok < 0 || tok >= g.Vocab {
			t.Fatalf("token %d out of range: %d", i, tok)
		}
	}
	if s.Targets[g.Seq-1] != -1 {
		t.Fatal("last target must be ignored")
	}
	for i := 0; i < g.Seq-1; i++ {
		if s.Targets[i] != s.Tokens[i+1] {
			t.Fatalf("target %d must be next token", i)
		}
	}
}

func TestDocIDsMatchEOS(t *testing.T) {
	g := testGen()
	s := g.Sample(3)
	// Document id increments exactly after each EOS.
	doc := 0
	for i, tok := range s.Tokens {
		if s.DocIDs[i] != doc {
			t.Fatalf("doc id at %d = %d, want %d", i, s.DocIDs[i], doc)
		}
		if tok == g.EOS() {
			doc++
		}
	}
}

func TestDocLengthsMeanRoughlyAvg(t *testing.T) {
	g := &Generator{Vocab: 64, Seq: 1 << 14, AvgDocLen: 100, Seed: 1}
	s := g.Sample(0)
	docs := s.DocIDs[len(s.DocIDs)-1] + 1
	mean := float64(g.Seq) / float64(docs)
	if mean < 50 || mean > 200 {
		t.Fatalf("mean doc length %v far from 100", mean)
	}
}

func TestDPBatchPartitionsGlobalBatch(t *testing.T) {
	g := testGen()
	gbs, ndp := 8, 4
	global := g.GlobalBatch(2, gbs)
	idx := 0
	for r := 0; r < ndp; r++ {
		for _, s := range g.DPBatch(2, gbs, ndp, r) {
			want := global[idx]
			for i := range s.Tokens {
				if s.Tokens[i] != want.Tokens[i] {
					t.Fatalf("DP partition mismatch at global sample %d", idx)
				}
			}
			idx++
		}
	}
	if idx != gbs {
		t.Fatalf("covered %d of %d samples", idx, gbs)
	}
}

func TestStepsDontOverlap(t *testing.T) {
	g := testGen()
	b0 := g.GlobalBatch(0, 4)
	b1 := g.GlobalBatch(1, 4)
	same := true
	for i := range b0[0].Tokens {
		if b0[0].Tokens[i] != b1[0].Tokens[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("consecutive steps must draw different samples")
	}
}

// attnWorkload is a sample's mask-allowed attention pairs: the per-sample
// attention FLOP weight behind Fig 14's imbalance.
func attnWorkload(s *model.Sample) int {
	n := len(s.Tokens)
	return attention.AllowedPairs(attention.Document{DocID: s.DocIDs}, attention.Iota(n), n)
}

func TestAttnWorkloadBounds(t *testing.T) {
	g := testGen()
	s := g.Sample(1)
	w := attnWorkload(s)
	upper := g.Seq * (g.Seq + 1) / 2 // full causal mask
	if w <= 0 || w > upper {
		t.Fatalf("workload %d outside (0, %d]", w, upper)
	}
	// Document masks must cut the causal workload substantially when docs
	// are much shorter than the sequence.
	if float64(w) > 0.7*float64(upper) {
		t.Fatalf("doc-mask workload %d suspiciously close to causal %d", w, upper)
	}
}

func TestAttnWorkloadVariesAcrossSamples(t *testing.T) {
	// The input-dependent workload variation that causes Fig 14's imbalance.
	g := testGen()
	w0, w1 := attnWorkload(g.Sample(0)), attnWorkload(g.Sample(1))
	if w0 == w1 {
		// Not impossible, but with geometric doc lengths it is very unlikely;
		// check a third sample before failing.
		if attnWorkload(g.Sample(2)) == w0 {
			t.Fatal("attention workload shows no variation across samples")
		}
	}
}

func TestEnvBuildsDocumentMask(t *testing.T) {
	g := testGen()
	s := g.Sample(0)
	env := Env(s)
	if len(env.QPos) != g.Seq {
		t.Fatal("env positions wrong")
	}
	// Find a document boundary and verify the mask blocks it.
	for i := 1; i < g.Seq; i++ {
		if s.DocIDs[i] != s.DocIDs[i-1] {
			if env.Mask.Allowed(i, i-1) {
				t.Fatal("document mask must block cross-document attention")
			}
			if !env.Mask.Allowed(i, i) {
				t.Fatal("self attention must be allowed")
			}
			return
		}
	}
	t.Skip("no document boundary in sample")
}

func TestModelTrainsOnGeneratedData(t *testing.T) {
	// The corpus must be learnable: loss decreases when training on it.
	cfg := model.TinyConfig()
	g := &Generator{Vocab: cfg.Vocab, Seq: 32, AvgDocLen: 8, Seed: 9}
	m := model.New(cfg, rand.New(rand.NewSource(44)))
	var first, last float64
	for step := int64(0); step < 40; step++ {
		m.ZeroGrads()
		loss := m.StepLoss(g.GlobalBatch(0, 2), Env) // repeat one batch: memorisation
		for _, p := range m.Params() {
			p.W.AxpyFrom(-0.2, p.G)
		}
		if step == 0 {
			first = loss
		}
		last = loss
	}
	if last > first*0.8 {
		t.Fatalf("loss on generated data did not drop: %v -> %v", first, last)
	}
}

func BenchmarkSampleGeneration(b *testing.B) {
	g := &Generator{Vocab: 128256, Seq: 8192, AvgDocLen: 1024, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Sample(int64(i))
	}
}

func TestGeneratorStateRoundTrip(t *testing.T) {
	g := &Generator{Vocab: 64, Seq: 32, AvgDocLen: 8, Seed: 123, LongDocFrac: 0.25}
	var buf bytes.Buffer
	if err := g.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	got := &Generator{}
	if err := got.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if *got != *g {
		t.Fatalf("state did not round-trip: %+v != %+v", got, g)
	}
	// The restored generator is the same pure function: identical samples.
	for i := int64(0); i < 4; i++ {
		a, b := g.Sample(i), got.Sample(i)
		for j := range a.Tokens {
			if a.Tokens[j] != b.Tokens[j] || a.Targets[j] != b.Targets[j] {
				t.Fatalf("sample %d diverges at position %d", i, j)
			}
		}
	}
	if err := got.LoadState(bytes.NewReader([]byte("garbagegarbagegarbage" +
		"garbagegarbagegarbagegarbage"))); err == nil {
		t.Fatal("bad magic must be rejected")
	}
}
