package balance

import (
	"math/rand"
	"reflect"
	"testing"

	"llama4d/internal/attention"
	"llama4d/internal/pp"
)

// heavyTailCosts builds a deterministic cost vector where a few samples
// dominate — the regime the planner exists for.
func heavyTailCosts(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	costs := make([]int64, n)
	for i := range costs {
		if rng.Float64() < 0.15 {
			costs[i] = 5000 + int64(rng.Intn(5000))
		} else {
			costs[i] = 100 + int64(rng.Intn(400))
		}
	}
	return costs
}

func TestPackDocsInvariants(t *testing.T) {
	lengths := []int{7, 3, 3, 2, 8, 1, 5, 4}
	bins := PackDocs(lengths, 8)
	seen := make(map[int]int)
	for _, bin := range bins {
		sum := 0
		for _, i := range bin {
			seen[i]++
			sum += lengths[i]
		}
		if sum > 8 {
			t.Fatalf("bin %v sums to %d > capacity 8", bin, sum)
		}
	}
	for i := range lengths {
		if seen[i] != 1 {
			t.Fatalf("doc %d placed %d times", i, seen[i])
		}
	}
	// FFD on this instance packs perfectly: 33 tokens over capacity 8 needs
	// at least 5 bins, and the decreasing pass achieves it.
	if len(bins) != 5 {
		t.Fatalf("got %d bins, want 5: %v", len(bins), bins)
	}
	if again := PackDocs(lengths, 8); !reflect.DeepEqual(bins, again) {
		t.Fatalf("non-deterministic packing: %v vs %v", bins, again)
	}
}

func TestCostFromStartsMatchesCensus(t *testing.T) {
	// One long doc costs more than many short docs at equal token count.
	seq := 128
	long := CostFromStarts(nil, seq)
	ids := attention.DocIDsFromLengths([]int{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}, seq)
	short := CostFromDocIDs(ids)
	if short >= long {
		t.Fatalf("short-doc cost %d should be below full-causal cost %d", short, long)
	}
}

func TestAssignReducesImbalance(t *testing.T) {
	const ndp, nmb, mbs = 4, 4, 2
	costs := heavyTailCosts(ndp*nmb*mbs, 1)
	seq := Sequential(len(costs), ndp, nmb, mbs)
	bal := Assign(costs, ndp, nmb, mbs)

	checkAssignment(t, bal, len(costs), ndp, nmb, mbs)
	checkAssignment(t, seq, len(costs), ndp, nmb, mbs)

	rSeq := MaxMeanRatio(seq.RankCosts(costs))
	rBal := MaxMeanRatio(bal.RankCosts(costs))
	if rBal >= rSeq {
		t.Fatalf("balanced ratio %.4f not below sequential %.4f", rBal, rSeq)
	}
	if again := Assign(costs, ndp, nmb, mbs); !reflect.DeepEqual(bal, again) {
		t.Fatalf("non-deterministic assignment")
	}
}

// checkAssignment verifies the slot structure: every sample exactly once,
// every rank exactly nmb·mbs samples.
func checkAssignment(t *testing.T, a *Assignment, n, ndp, nmb, mbs int) {
	t.Helper()
	if len(a.Rank) != ndp {
		t.Fatalf("%d ranks, want %d", len(a.Rank), ndp)
	}
	seen := make(map[int]int)
	for r, idx := range a.Rank {
		if len(idx) != nmb*mbs {
			t.Fatalf("rank %d has %d samples, want %d", r, len(idx), nmb*mbs)
		}
		for _, i := range idx {
			seen[i]++
		}
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("sample %d assigned %d times", i, seen[i])
		}
	}
}

func TestPlanShardsBalancesRowCost(t *testing.T) {
	// Fine tiles so the census resolves per-shard structure at this toy
	// sequence length (the xval sweep's convention).
	pr, pc := attention.SetTiling(4, 4)
	defer attention.SetTiling(pr, pc)
	seq, cp := 64, 4
	// One 48-token document then short ones: contiguous shards give the
	// late-rows rank far more work.
	ids := attention.DocIDsFromLengths([]int{48, 4, 4, 4, 4}, seq)
	starts := attention.DocStarts(ids)

	shards := PlanShards(starts, seq, cp)
	seen := make(map[int]int)
	for r, s := range shards {
		if len(s) != seq/cp {
			t.Fatalf("shard %d has %d rows, want %d", r, len(s), seq/cp)
		}
		for _, q := range s {
			seen[q]++
		}
	}
	for q := 0; q < seq; q++ {
		if seen[q] != 1 {
			t.Fatalf("row %d in %d shards", q, seen[q])
		}
	}

	contig := make([][]int, cp)
	for r := 0; r < cp; r++ {
		contig[r] = attention.Iota(seq / cp)
		for i := range contig[r] {
			contig[r][i] += r * seq / cp
		}
	}
	rPlan := MaxMeanRatio(ShardCosts(starts, seq, shards))
	rContig := MaxMeanRatio(ShardCosts(starts, seq, contig))
	if rPlan >= rContig {
		t.Fatalf("planned shard ratio %.4f not below contiguous %.4f", rPlan, rContig)
	}
	if again := PlanShards(starts, seq, cp); !reflect.DeepEqual(shards, again) {
		t.Fatalf("non-deterministic shard plan")
	}
}

func TestOrderMicrobatches(t *testing.T) {
	sched := pp.NewFlexible(4, 1, 8, 4)
	mbCost := []float64{1, 9, 1, 1, 8, 1, 1, 7}
	perm, span := OrderMicrobatches(sched, mbCost, 0.1)
	seen := make(map[int]bool)
	for _, p := range perm {
		if p < 0 || p >= len(mbCost) || seen[p] {
			t.Fatalf("perm %v is not a permutation", perm)
		}
		seen[p] = true
	}
	if idSpan := simulatePerm(sched, mbCost, 0.1, []int{0, 1, 2, 3, 4, 5, 6, 7}); span > idSpan {
		t.Fatalf("chosen order makespan %.3f worse than identity %.3f", span, idSpan)
	}
}

func TestReorderMB(t *testing.T) {
	a := Sequential(8, 1, 4, 2)
	a.ReorderMB(0, []int{3, 1, 0, 2})
	want := []int{6, 7, 2, 3, 0, 1, 4, 5}
	if !reflect.DeepEqual(a.Rank[0], want) {
		t.Fatalf("reorder got %v, want %v", a.Rank[0], want)
	}
}

func TestMaxMeanRatioDegenerate(t *testing.T) {
	if r := MaxMeanRatio(nil); r != 1 {
		t.Fatalf("empty loads: ratio %v, want 1", r)
	}
	if r := MaxMeanRatio([]int64{0, 0, 0}); r != 1 {
		t.Fatalf("all-zero loads: ratio %v, want 1", r)
	}
	if r := MaxMeanRatio([]int64{5, 5}); r != 1 {
		t.Fatalf("uniform loads: ratio %v, want 1", r)
	}
	if r := MaxMeanRatio([]int64{3, 1}); r != 1.5 {
		t.Fatalf("ratio %v, want 1.5", r)
	}
}
