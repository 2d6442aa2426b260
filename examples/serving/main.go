// Serving: run the inference subsystem end to end — a paged KV-cache, a
// continuous-batching scheduler, and a forward-only engine serving 48
// concurrent request streams — then verify the two properties the subsystem
// is built around: generated tokens are bitwise-faithful to the dense
// full-forward oracle, and continuous batching covers the identical workload
// in a fraction of the engine steps without changing a single token. (The
// wall-clock side of that claim needs a model whose weights dwarf the cache;
// the serve-decode workload of bench/ measures it on one.)
package main

import (
	"fmt"
	"math/rand"

	"llama4d/internal/model"
	"llama4d/internal/serve"
)

func argmax(row []float32) int {
	best, bestV := 0, row[0]
	for j, v := range row[1:] {
		if v > bestV {
			best, bestV = j+1, v
		}
	}
	return best
}

// run serves the request set with the given decode batch limit and returns
// the load report plus each request's generated tokens.
func run(m *model.Model, reqs []*serve.Request, maxBatch int) (*serve.Report, map[int][]int) {
	e := serve.NewEngine(m, serve.Options{PageSize: 8})
	s := serve.NewScheduler(e.KV, e, maxBatch)
	rep, err := serve.RunLoad(s, reqs)
	if err != nil {
		panic(err)
	}
	outputs := map[int][]int{}
	for _, seq := range s.Completed() {
		outputs[seq.Req.ID] = append([]int(nil), seq.Output...)
	}
	return rep, outputs
}

func main() {
	cfg := model.Config{
		Vocab: 96, Dim: 32, Hidden: 48, NHeads: 4, NKVHeads: 2,
		NLayers: 2, MaxSeq: 64, RopeBase: 10000,
	}
	m := model.New(cfg, rand.New(rand.NewSource(5)))

	w := serve.Workload{
		Requests: 48, PromptMin: 4, PromptMax: 10, MaxNewMin: 6, MaxNewMax: 10,
		ArrivalSpan: 4, Vocab: cfg.Vocab, Seed: 11,
	}
	reqs := w.Generate()

	fmt.Printf("serving %d request streams on a %d-layer model (continuous batching, max batch 32)\n",
		len(reqs), cfg.NLayers)
	rep, batched := run(m, reqs, 32)
	fmt.Print(rep.Table())

	// Oracle spot-check: replay request 0 greedily through the dense
	// full-forward oracle; the paged batched decode must have produced the
	// identical token at every step (the decode determinism contract).
	e := serve.NewEngine(m, serve.Options{})
	req := reqs[0]
	tokens := append([]int(nil), req.Prompt...)
	for j, got := range batched[req.ID] {
		lg := e.FullForwardLogits(tokens)
		want := argmax(lg.Row(lg.Rows() - 1))
		if got != want {
			panic(fmt.Sprintf("request %d token %d: engine %d != oracle %d", req.ID, j, got, want))
		}
		tokens = append(tokens, got)
	}
	fmt.Printf("oracle check: request %d's %d tokens match the dense full forward exactly\n",
		req.ID, len(batched[req.ID]))

	// Same workload, one request at a time: same tokens, more engine steps.
	srep, serial := run(m, reqs, 1)
	for id, toks := range batched {
		for j := range toks {
			if serial[id][j] != toks[j] {
				panic(fmt.Sprintf("request %d token %d: serial %d != batched %d", id, j, serial[id][j], toks[j]))
			}
		}
	}
	fmt.Println("serial replay: identical tokens for every request")
	fmt.Printf("continuous batching served the workload in %d engine steps vs %d one-at-a-time (%.1fx fewer)\n",
		rep.Steps, srep.Steps, float64(srep.Steps)/float64(rep.Steps))
}
