package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"llama4d/internal/planner"
)

// planSpec is the planner workload: one full-space search request, and a
// small request of the same family whose search is the warm-up op. The
// planner's input has no random part, so the seed changes nothing here.
type planSpec struct {
	req  planner.Request
	warm planner.Request
}

func (sp planSpec) open(int64, bool) (session, error) {
	plans, _ := planner.SearchWithStats(sp.warm)
	if len(plans) == 0 {
		return nil, errors.New("warm-up search found no plan")
	}
	return &planSession{spec: sp, warm: uint64(rankHash(plans))}, nil
}

type planSession struct {
	spec  planSpec
	warm  uint64
	plans []planner.Plan // the first timed search's ranked list
	hash  uint32
	stats planner.Stats
}

// rankHash digests the ranked list: every plan's identity and price, in order.
func rankHash(plans []planner.Plan) uint32 {
	h := fnv.New32a()
	for _, p := range plans {
		fmt.Fprintf(h, "%+v|%x\n", p.Candidate(), p.StepTime)
	}
	return h.Sum32()
}

func (s *planSession) digest() uint64 { return s.warm }

func (s *planSession) op(m *samples, _ bool, log *spanLog, parent int) {
	id := log.begin("search", parent)
	t0 := time.Now()
	plans, st := planner.SearchWithStats(s.spec.req)
	dt := time.Since(t0)
	log.end(id)

	m.attempted++
	if len(plans) == 0 {
		m.fail("search returned no plan")
		return
	}
	ms := dt.Seconds() * 1e3
	m.ops = append(m.ops, opSample{wallMS: ms, latMS: ms, work: float64(st.Enumerated)})
	h := rankHash(plans)
	if s.plans == nil {
		s.plans, s.hash, s.stats = plans, h, st
	} else if h != s.hash || st != s.stats {
		m.fail("ranked list %08x (%+v) differs from the first search's %08x (%+v)", h, st, s.hash, s.stats)
	}
}

func (s *planSession) layers(out map[string]float64) {
	out["planner.enumerated"] = float64(s.stats.Enumerated)
	out["planner.pruned_shape"] = float64(s.stats.PrunedShape)
	out["planner.pruned_memory"] = float64(s.stats.PrunedMemory)
	out["planner.feasible"] = float64(s.stats.Feasible)
	out["planner.rank_hash"] = float64(s.hash)
}

func (s *planSession) verify(m *samples) {
	if s.plans == nil {
		return
	}
	// Re-pricing the winner on its own must reproduce the search's entry.
	m.attempted++
	win := s.plans[0]
	got, err := s.spec.req.Evaluate(win.Candidate())
	if err != nil {
		m.fail("re-pricing the winner %v: %v", win, err)
	} else if *got != win {
		m.fail("re-priced winner %+v differs from the search's %+v", *got, win)
	}
}
