package pp

import (
	"strings"
	"testing"
)

// buildSchedule invokes one constructor and reports whether it panicked and
// with what message. Constructors are documented to panic — with a "pp: "
// prefixed message, never a runtime error — on non-positive dims. Kind 1 is
// the original interleaved 1F1B, the flexible schedule with nc = pp.
func buildSchedule(kind, ppN, v, nmb, nc int) (s *Schedule, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			if msg, ok := r.(string); ok {
				panicMsg = msg
			} else {
				panicMsg = "non-string panic"
			}
			s = nil
		}
	}()
	switch kind {
	case 0:
		return NewFlexible(ppN, v, nmb, nc), ""
	case 1:
		return NewFlexible(ppN, v, nmb, ppN), ""
	default:
		return NewAllFwdAllBwd(ppN, v, nmb), ""
	}
}

// FuzzScheduleConstruction throws adversarial dimensions at every schedule
// constructor: invalid dims must produce the documented descriptive panic
// (never a runtime error like integer divide by zero), and any schedule that
// does come back must validate and simulate cleanly.
func FuzzScheduleConstruction(f *testing.F) {
	f.Add(0, 2, 2, 4, 2)
	f.Add(1, 4, 1, 8, 0)
	f.Add(2, 3, 2, 5, 0)
	f.Add(1, 0, 1, 1, 1)   // div-by-zero regression: 1F1B with pp=0
	f.Add(0, -1, 1, 1, 1)  // negative dim
	f.Add(1, 3, 1, 4, 0)   // 1F1B with nmb % pp != 0: the flexible schedule takes it
	f.Add(0, 1, 1, 7, -5)  // nc below range: clamped, not rejected
	f.Add(0, 1, 1, 3, 999) // nc above range: clamped, not rejected
	f.Fuzz(func(t *testing.T, kind, ppN, v, nmb, nc int) {
		kind = ((kind % 3) + 3) % 3
		valid := ppN >= 1 && v >= 1 && nmb >= 1
		if valid && int64(ppN)*int64(v)*int64(nmb) > 4096 {
			t.Skip("bound schedule size")
		}
		s, panicMsg := buildSchedule(kind, ppN, v, nmb, nc)
		if !valid {
			if panicMsg == "" {
				t.Fatalf("kind=%d pp=%d v=%d nmb=%d nc=%d: invalid dims accepted", kind, ppN, v, nmb, nc)
			}
			if !strings.HasPrefix(panicMsg, "pp: ") {
				t.Fatalf("kind=%d pp=%d v=%d nmb=%d: undocumented panic %q", kind, ppN, v, nmb, panicMsg)
			}
			return
		}
		if panicMsg != "" {
			t.Fatalf("kind=%d pp=%d v=%d nmb=%d nc=%d: unexpected panic %q", kind, ppN, v, nmb, nc, panicMsg)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("kind=%d pp=%d v=%d nmb=%d nc=%d: constructed schedule invalid: %v", kind, ppN, v, nmb, nc, err)
		}
		if s.NC < 1 || s.NC > s.NMB {
			t.Fatalf("nc=%d not clamped into [1, %d]", s.NC, s.NMB)
		}
		tl, err := s.Simulate(UniformCosts(1, 0))
		if err != nil {
			t.Fatalf("simulating valid schedule: %v", err)
		}
		// Bubble ratio idle/busy is unbounded above (pp=80, nmb=1 idles
		// ~79× its compute) but never negative, and the corresponding
		// utilisation fraction must land in (0, 1].
		if br := tl.BubbleRatio(); br < 0 {
			t.Fatalf("negative bubble ratio %v", br)
		}
		var busy float64
		for _, b := range tl.Busy {
			busy += b
		}
		if u := busy / (tl.Makespan * float64(len(tl.Busy))); u <= 0 || u > 1 {
			t.Fatalf("utilisation %v outside (0, 1]", u)
		}
		if peaks := s.PeakInFlight(); len(peaks) != s.PP {
			t.Fatalf("PeakInFlight returned %d ranks, want %d", len(peaks), s.PP)
		}
	})
}
