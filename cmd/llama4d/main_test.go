package main

import (
	"hash/fnv"
	"testing"

	"llama4d/internal/testutil"
)

// stdoutDigests pins the FNV-64a digest of the stdout of every experiment
// that prints no wall-clock number, so a change to any simulator price
// surfaces here, named by the experiment it moved. fig11-fig13 print the CP
// exchange at the per-document prices cost.CPAllGatherTime and
// cost.CPRingTime. train, losscurve, metrics, overlap and balance are not
// pinned: they print wall-clock columns or measured live-cluster numbers.
var stdoutDigests = map[string]uint64{
	"table2":   0x000c8b0102af720f,
	"fig2":     0xc01a751e47eb0f59,
	"fig3":     0x7f5629313bd80a19,
	"fig4":     0xfbd6372f8271d2ef,
	"fig6":     0xa3716f8f0d950611,
	"fig8":     0x50b9c12d42e202d7,
	"fig9":     0x52d4f59a8efd8092,
	"fig10":    0xc0becf10ae10970c,
	"fig11":    0x3797abfa3dd598ed,
	"fig12":    0xbf3be1f569f9d1a0,
	"fig13":    0x84777ee2b309c007,
	"fig14":    0xf7ee0b35c87c40f0,
	"e2e":      0x33ec8e1f56c1788b,
	"numerics": 0x1bd24beed9e90d09,
	"hw":       0x1540fa2404f6e967,
	"goodput":  0x20280efd5f506960,
	"serve":    0x543ac208010b97ec,
	"planner":  0x59b2282452cfc1c0,
	"cp":       0x6974c98e918028a4,
}

// TestAllExperimentsRun executes every experiment end to end — the CLI's
// regression net — and checks each pinned experiment's stdout digest.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("experiment %s panicked: %v", e.name, p)
				}
			}()
			out := testutil.CaptureStdout(e.run)
			want, pinned := stdoutDigests[e.name]
			if !pinned {
				return
			}
			h := fnv.New64a()
			h.Write([]byte(out))
			if got := h.Sum64(); got != want {
				t.Errorf("stdout digest %#016x, want %#016x; output:\n%s", got, want, out)
			}
		})
	}
}
