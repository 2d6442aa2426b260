package attention

// Recorder accumulates the blocked engine's per-call census for one consumer
// — in practice one cluster rank, so the workload-balance planner and the
// metrics registry attribute effective attention work to individual ranks;
// the step's world total is the sum of its ranks' recorders.
//
// A Recorder is NOT safe for concurrent use: each rank goroutine owns its
// own, and the registry reads it only after the step's goroutines have joined
// (RunSPMD's join publishes the writes). A nil *Recorder is a valid no-op
// receiver, so un-instrumented call sites pass nil at zero cost.
//
// Recording fires once per ForwardRecorded/BackwardRecorded invocation,
// with the same Grid the kernels classify with.
type Recorder struct {
	// Stats is the unscaled census sum: one Summary() per recorded call.
	Stats Stats
	// EffFLOPs / NominalFLOPs count the attention score-plane matmul work in
	// FLOPs across all recorded sweeps (forward = 2 sweeps, backward = 4):
	// nominal is the dense 2·d·sq·sk per sweep, effective subtracts the
	// empty-tile pairs the engine provably skips. These are the quantities
	// the balance planner equalises across ranks.
	EffFLOPs     int64
	NominalFLOPs int64
}

// Reset zeroes the recorder (BeginStep).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	*r = Recorder{}
}

// Record folds one engine invocation over grid g with the given number of
// matmul-shaped sweeps of inner dimension d. Exported so the closed-form
// predictor (internal/metrics/xval) can build the modeled counterpart with
// the same arithmetic.
func (r *Recorder) Record(g *Grid, sweeps, d int) {
	if r == nil {
		return
	}
	r.Stats = r.Stats.Add(g.Summary())
	per := 2 * int64(d) * int64(sweeps)
	r.NominalFLOPs += per * g.TotalPairs()
	r.EffFLOPs += per * (g.TotalPairs() - g.EmptyPairs)
}

// Add folds another recorder's totals into r (modeled-side aggregation).
func (r *Recorder) Add(o *Recorder) {
	if r == nil || o == nil {
		return
	}
	r.Stats = r.Stats.Add(o.Stats)
	r.EffFLOPs += o.EffFLOPs
	r.NominalFLOPs += o.NominalFLOPs
}
