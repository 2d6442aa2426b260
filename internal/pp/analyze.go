package pp

import (
	"fmt"
	"math"

	"llama4d/internal/trace"
)

// Costs parameterises the analytic timing model of a schedule. Durations are
// in arbitrary time units; per-stage functions allow heterogeneous stages
// (embedding-heavy first rank, head-heavy last rank — the imbalance of
// §3.1.2, and cross- vs self-attention stages of §3.2.2).
type Costs struct {
	Fwd func(globalStage int) float64 // forward compute time of one micro-batch
	Bwd func(globalStage int) float64 // backward compute time
	P2P float64                       // exposed point-to-point latency between ranks

	// FwdMB/BwdMB, when non-nil, override Fwd/Bwd with per-micro-batch costs:
	// document-masked workloads make micro-batches heterogeneous (ragged
	// effective-FLOP loads), and the balance planner simulates candidate
	// micro-batch orderings through exactly this hook.
	FwdMB func(globalStage, mb int) float64
	BwdMB func(globalStage, mb int) float64
}

// UniformCosts returns a cost model with identical stages and backward =
// 2× forward (the standard FLOP ratio).
func UniformCosts(fwd, p2p float64) Costs {
	return Costs{
		Fwd: func(int) float64 { return fwd },
		Bwd: func(int) float64 { return 2 * fwd },
		P2P: p2p,
	}
}

// Interval is one executed op on the simulated timeline.
type Interval struct {
	Rank       int
	Op         Op
	Start, End float64
}

// Timeline is the result of simulating a schedule.
type Timeline struct {
	Schedule  *Schedule
	Intervals []Interval
	Makespan  float64
	Busy      []float64 // per-rank compute time
}

// Simulate executes the schedule under the cost model with in-order issue
// per rank (each rank blocks on its next op's dependencies) and decoupled
// asynchronous P2P (§5.2): a send never blocks the sender; the receiver pays
// Costs.P2P after the producer finishes. Returns an error on deadlock or on
// an op outside the schedule's stage and micro-batch range.
func (s *Schedule) Simulate(c Costs) (*Timeline, error) {
	stages := s.Stages()
	// finish[slot] is the end time of (kind, global stage, mb), valid once
	// done[slot] is set: one dense table instead of a map.
	slot := func(k OpKind, g, mb int) int { return (int(k)*stages+g)*s.NMB + mb }
	finish := make([]float64, 2*stages*s.NMB)
	done := make([]bool, len(finish))
	ptr := make([]int, s.PP)
	rankFree := make([]float64, s.PP)
	remaining := 0
	for r, ops := range s.Ranks {
		for i, op := range ops {
			if op.Kind != Fwd && op.Kind != Bwd || op.Stage < 0 || op.Stage >= s.V || op.MB < 0 || op.MB >= s.NMB {
				return nil, fmt.Errorf("pp: rank %d op %d out of range: %+v", r, i, op)
			}
		}
		remaining += len(ops)
	}
	tl := &Timeline{Schedule: s, Busy: make([]float64, s.PP), Intervals: make([]Interval, 0, remaining)}
	lastStage := stages - 1

	for remaining > 0 {
		progressed := false
		for r := 0; r < s.PP; r++ {
			for ptr[r] < len(s.Ranks[r]) {
				op := s.Ranks[r][ptr[r]]
				g := s.GlobalStage(r, op.Stage)
				// Dependency ready time; ok is cleared when not yet satisfiable.
				ready := 0.0
				ok := true
				need := func(i int, xfer bool) {
					if !done[i] {
						ok = false
						return
					}
					t := finish[i]
					if xfer {
						t += c.P2P
					}
					if t > ready {
						ready = t
					}
				}
				switch op.Kind {
				case Fwd:
					if g > 0 {
						prevRank, _ := s.StageOwner(g - 1)
						need(slot(Fwd, g-1, op.MB), prevRank != r)
					}
				case Bwd:
					need(slot(Fwd, g, op.MB), false)
					if g < lastStage {
						nextRank, _ := s.StageOwner(g + 1)
						need(slot(Bwd, g+1, op.MB), nextRank != r)
					}
				}
				if !ok {
					break // rank blocks in-order on this op
				}
				start := math.Max(rankFree[r], ready)
				var dur float64
				switch {
				case op.Kind == Bwd && c.BwdMB != nil:
					dur = c.BwdMB(g, op.MB)
				case op.Kind == Bwd:
					dur = c.Bwd(g)
				case c.FwdMB != nil:
					dur = c.FwdMB(g, op.MB)
				default:
					dur = c.Fwd(g)
				}
				end := start + dur
				i := slot(op.Kind, g, op.MB)
				finish[i], done[i] = end, true
				rankFree[r] = end
				tl.Busy[r] += dur
				tl.Intervals = append(tl.Intervals, Interval{Rank: r, Op: op, Start: start, End: end})
				if end > tl.Makespan {
					tl.Makespan = end
				}
				ptr[r]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			detail := ""
			for r := 0; r < s.PP; r++ {
				if ptr[r] < len(s.Ranks[r]) {
					op := s.Ranks[r][ptr[r]]
					detail += fmt.Sprintf(" rank%d@%s(s%d,mb%d)", r, op.Kind, op.Stage, op.MB)
				}
			}
			return nil, fmt.Errorf("pp: schedule deadlocked with %d ops remaining:%s", remaining, detail)
		}
	}
	return tl, nil
}

// BubbleRatio returns pipeline idle time over compute time, averaged across
// ranks — the paper's PP bubble metric ((pp−1)/nmb/v for the classic
// schedule, §3.1.1).
func (t *Timeline) BubbleRatio() float64 {
	var idle, busy float64
	for _, b := range t.Busy {
		idle += t.Makespan - b
		busy += b
	}
	if busy == 0 {
		return 0
	}
	return idle / busy
}

// PeakInFlight returns, per rank, the maximum number of micro-batches whose
// forward has run but whose backward has not — the activation-memory proxy
// that grows by (nc−pp)·(v−1) when nc > pp (§3.1.1) and is maximal for
// all-forward-all-backward (Fig 4b, Fig 9b).
func (s *Schedule) PeakInFlight() []int {
	peaks := make([]int, s.PP)
	for r, ops := range s.Ranks {
		cur, peak := 0, 0
		for _, op := range ops {
			if op.Kind == Fwd {
				cur++
				if cur > peak {
					peak = cur
				}
			} else {
				cur--
			}
		}
		peaks[r] = peak
	}
	return peaks
}

// MaxPeakInFlight returns the largest per-rank peak.
func (s *Schedule) MaxPeakInFlight() int {
	m := 0
	for _, p := range s.PeakInFlight() {
		if p > m {
			m = p
		}
	}
	return m
}

// ToTrace converts the simulated timeline into a trace.Trace for the
// debugging tooling: ASCII strips, Chrome JSON export, per-rank accounting.
func (t *Timeline) ToTrace() *trace.Trace {
	tr := &trace.Trace{}
	for _, iv := range t.Intervals {
		tr.Add(trace.Event{
			Rank: iv.Rank, Kind: trace.Compute, Group: "pp",
			Name:  fmt.Sprintf("%s(s%d,mb%d)", iv.Op.Kind, iv.Op.Stage, iv.Op.MB),
			Start: iv.Start, Dur: iv.End - iv.Start,
		})
	}
	return tr
}

// Render draws the schedule as a Fig 2-style grid: one row per rank, one
// column per simulated time slot, each cell the micro-batch index (forward)
// or a bracketed index (backward), with '.' for idle slots. Uses unit
// forward cost and 2× backward cost.
func (s *Schedule) Render() (string, error) {
	tl, err := s.Simulate(UniformCosts(1, 0))
	if err != nil {
		return "", err
	}
	width := int(tl.Makespan)
	rows := make([][]string, s.PP)
	for r := range rows {
		rows[r] = make([]string, width)
		for c := range rows[r] {
			rows[r][c] = " . "
		}
	}
	for _, iv := range tl.Intervals {
		cell := fmt.Sprintf("%2dF", iv.Op.MB)
		if iv.Op.Kind == Bwd {
			cell = fmt.Sprintf("%2dB", iv.Op.MB)
		}
		for c := int(iv.Start); c < int(iv.End) && c < width; c++ {
			rows[iv.Rank][c] = cell
		}
	}
	out := ""
	for r, row := range rows {
		out += fmt.Sprintf("rank %d |", r)
		for _, cell := range row {
			out += cell
		}
		out += "|\n"
	}
	return out, nil
}
