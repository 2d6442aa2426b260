package ft

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"llama4d/internal/comm"
	"llama4d/internal/core"
	"llama4d/internal/data"
	"llama4d/internal/fsdp"
	"llama4d/internal/model"
	"llama4d/internal/trace"
)

func tinyModel() model.Config {
	return model.Config{Vocab: 32, Dim: 16, Hidden: 32, NHeads: 4, NKVHeads: 2,
		NLayers: 4, MaxSeq: 16, RopeBase: 10000}
}

func tinyCfg(topo core.Topology, zero fsdp.Mode) core.Config {
	return core.Config{
		Model: tinyModel(), Topo: topo,
		V: 1, NMB: 2, NC: 2,
		ZeRO: zero, Seq: 16, GBS: 2 * topo.DP, LR: 3e-3,
		UseDocMask: true, Seed: 41,
	}
}

func tinyGen(cfg core.Config) *data.Generator {
	return &data.Generator{Vocab: cfg.Model.Vocab, Seq: cfg.Seq, AvgDocLen: 6, Seed: 42}
}

// fullState snapshots a cluster's complete training state (weights +
// sharded optimizer moments of every rank) as one byte stream.
func fullState(t *testing.T, cl *core.Cluster) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := cl.SaveFullState(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// referenceState runs an uninterrupted training run and returns its final
// state and per-step losses.
func referenceState(t *testing.T, cfg core.Config, steps int64) ([]byte, []float64) {
	t.Helper()
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := tinyGen(cfg)
	losses := make([]float64, steps)
	for s := int64(0); s < steps; s++ {
		loss, err := cl.TryStep(gen, s)
		if err != nil {
			t.Fatal(err)
		}
		losses[s] = loss
	}
	return fullState(t, cl), losses
}

// TestCrashRecoveryBitwise is the subsystem's acceptance test: a rank crash
// injected inside a real collective at step N is detected (no hang), the
// controller restores the last coordinated checkpoint into a rebuilt
// cluster, and the finished run is bitwise identical — weights AND
// optimizer moments — to a run that never failed, across distinct 4D
// topologies and ZeRO modes.
func TestCrashRecoveryBitwise(t *testing.T) {
	const steps = 6
	cases := []struct {
		name  string
		topo  core.Topology
		zero  fsdp.Mode
		crash int // rank to kill
	}{
		{"tp2pp2-zero1", core.Topology{TP: 2, CP: 1, PP: 2, DP: 1}, fsdp.ZeRO1, 3},
		{"cp2dp2-zero2", core.Topology{TP: 1, CP: 2, PP: 1, DP: 2}, fsdp.ZeRO2, 0},
		{"tp2cp2pp2-zero3", core.Topology{TP: 2, CP: 2, PP: 2, DP: 1}, fsdp.ZeRO3, 5},
		{"pp2dp2-zero1", core.Topology{TP: 1, CP: 1, PP: 2, DP: 2}, fsdp.ZeRO1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyCfg(tc.topo, tc.zero)
			wantState, wantLosses := referenceState(t, cfg, steps)

			col := &trace.Collector{}
			ctl := &Controller{
				Cfg: cfg, Gen: tinyGen(cfg),
				CheckpointEvery: 2,
				Plan: NewPlan(Fault{
					Kind: Crash, Rank: tc.crash, Step: 3, OpIndex: 1,
				}),
				Timeout: 30 * time.Second, // detection comes from the dead goroutine, not the deadline
				Trace:   col,
			}
			losses, err := ctl.Run(steps)
			if err != nil {
				t.Fatalf("controller did not recover: %v", err)
			}
			if ctl.Restarts != 1 || len(ctl.Failures) != 1 {
				t.Fatalf("restarts=%d failures=%d, want 1/1", ctl.Restarts, len(ctl.Failures))
			}
			if got := ctl.Failures[0].Rank; got != tc.crash {
				t.Fatalf("failure attributed to rank %d, crashed rank %d", got, tc.crash)
			}
			var ce *CrashError
			if !errors.As(ctl.Failures[0], &ce) {
				t.Fatalf("failure cause %v does not unwrap to *CrashError", ctl.Failures[0])
			}
			if !bytes.Equal(fullState(t, ctl.Cluster), wantState) {
				t.Fatal("recovered run's weights/optimizer state diverged from the uninterrupted reference")
			}
			for s, want := range wantLosses {
				if losses[s] != want {
					t.Fatalf("step %d loss %v != reference %v", s, losses[s], want)
				}
			}
			// The fault lifecycle landed on the trace: inject, detect,
			// restore, and the periodic checkpoints.
			counts := map[string]int{}
			for _, e := range col.Snapshot().Events {
				if e.Kind == trace.Fault {
					counts[e.Name]++
				}
			}
			if counts["ft.inject.crash"] != 1 || counts["ft.detect"] != 1 || counts["ft.restore"] != 1 {
				t.Fatalf("fault trace events missing: %v", counts)
			}
			if counts["ft.checkpoint"] < 2 {
				t.Fatalf("expected periodic checkpoints on the trace, got %v", counts)
			}
		})
	}
}

// TestStallDetection: a stalled rank (nothing dies, nothing progresses) is
// caught by the world's deadline failure detector, and the controller still
// finishes bitwise-identically.
func TestStallDetection(t *testing.T) {
	cfg := tinyCfg(core.Topology{TP: 2, CP: 1, PP: 2, DP: 1}, fsdp.ZeRO1)
	const steps = 5
	wantState, _ := referenceState(t, cfg, steps)

	ctl := &Controller{
		Cfg: cfg, Gen: tinyGen(cfg),
		CheckpointEvery: 2,
		Plan: NewPlan(Fault{
			Kind: Stall, Rank: 1, Step: 2, OpIndex: 0,
			StallFor: time.Hour, // interruptible: ends when detection aborts the world
		}),
		Timeout: 800 * time.Millisecond,
	}
	start := time.Now()
	if _, err := ctl.Run(steps); err != nil {
		t.Fatalf("controller did not recover from stall: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("stall recovery took %v; detection did not fire", elapsed)
	}
	if len(ctl.Failures) != 1 {
		t.Fatalf("failures=%d, want 1", len(ctl.Failures))
	}
	var de *comm.DeadlineError
	if !errors.As(ctl.Failures[0], &de) {
		t.Fatalf("stall failure %v does not unwrap to *comm.DeadlineError", ctl.Failures[0])
	}
	if ctl.Failures[0].Rank != -1 {
		t.Fatalf("stall misattributed to rank %d; no rank died, so it must be -1", ctl.Failures[0].Rank)
	}
	if !bytes.Equal(fullState(t, ctl.Cluster), wantState) {
		t.Fatal("stall-recovered run diverged from the uninterrupted reference")
	}
}

// TestBitFlipDiverges: silent data corruption neither crashes nor stalls —
// the run completes "successfully" with wrong state. This is exactly why
// the repo's bitwise verification discipline (§6.2) matters.
func TestBitFlipDiverges(t *testing.T) {
	cfg := tinyCfg(core.Topology{TP: 2, CP: 1, PP: 2, DP: 1}, fsdp.ZeRO1)
	const steps = 4
	wantState, _ := referenceState(t, cfg, steps)

	ctl := &Controller{
		Cfg: cfg, Gen: tinyGen(cfg),
		CheckpointEvery: 2,
		Plan: NewPlan(Fault{
			Kind: BitFlip, Rank: 0, Step: 1, OpIndex: 0, Bit: 30, Elem: 3,
		}),
	}
	if _, err := ctl.Run(steps); err != nil {
		t.Fatalf("bit flip must not fail the run: %v", err)
	}
	if len(ctl.Failures) != 0 || ctl.Restarts != 0 {
		t.Fatalf("bit flip must be silent, got failures=%d restarts=%d", len(ctl.Failures), ctl.Restarts)
	}
	if bytes.Equal(fullState(t, ctl.Cluster), wantState) {
		t.Fatal("bit-flipped run matches the reference; the fault never landed")
	}
}

// TestDetectionIsFast: a crash surfaces via the dead goroutine (not the
// deadline), so detection latency is far below the detector timeout.
func TestDetectionIsFast(t *testing.T) {
	cfg := tinyCfg(core.Topology{TP: 2, CP: 1, PP: 1, DP: 1}, fsdp.ZeRO1)
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.World.Timeout = time.Hour
	plan := NewPlan(Fault{Kind: Crash, Rank: 1, Step: 0, OpIndex: 0})
	plan.Arm(cl.World, 0)
	start := time.Now()
	_, err = cl.TryStep(tinyGen(cfg), 0)
	if err == nil {
		t.Fatal("crashed step returned no error")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("detection took %v despite a dead goroutine", elapsed)
	}
	rf := AsRankFailure(err, 0)
	if rf.Rank != 1 {
		t.Fatalf("attributed rank %d, want 1", rf.Rank)
	}
	// The dead world stays dead: further steps fail immediately instead of
	// computing on a half-updated cluster.
	if _, err := cl.TryStep(tinyGen(cfg), 1); err == nil {
		t.Fatal("aborted world accepted another step")
	}
}

// ReadCheckpoint deserializes a WriteTo stream: the read half of the
// coordinated checkpoint format, which TestCheckpointSerialization
// round-trips bitwise. Recovery restores from memory, so only the test
// reads a stream back.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("ft: bad checkpoint magic %#x", magic)
	}
	var step uint64
	if err := binary.Read(r, binary.LittleEndian, &step); err != nil {
		return nil, err
	}
	c := &Checkpoint{Step: int64(step)}
	for _, dst := range []*[]byte{&c.Data, &c.State} {
		var n uint64
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		*dst = buf
	}
	return c, nil
}

// TestCheckpointSerialization: WriteTo/ReadCheckpoint round-trips bitwise
// and the deserialized checkpoint restores an equivalent cluster.
func TestCheckpointSerialization(t *testing.T) {
	cfg := tinyCfg(core.Topology{TP: 1, CP: 1, PP: 2, DP: 1}, fsdp.ZeRO2)
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := tinyGen(cfg)
	for s := int64(0); s < 2; s++ {
		if _, err := cl.TryStep(gen, s); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := Save(cl, gen, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ckpt.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != ckpt.Step || !bytes.Equal(got.Data, ckpt.Data) || !bytes.Equal(got.State, ckpt.State) {
		t.Fatal("checkpoint did not round-trip bitwise")
	}
	restored, gen2, err := got.Restore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *gen2 != *gen {
		t.Fatalf("generator state did not round-trip: %+v != %+v", gen2, gen)
	}
	if !bytes.Equal(fullState(t, restored), fullState(t, cl)) {
		t.Fatal("restored cluster state differs from the source cluster")
	}
}

// TestCrashMidP2PBitwise injects the crash into a pipeline P2P op rather
// than a collective: on a pp=2 dp=2 ZeRO-2 cluster, rank 0's first comm op
// of a step is pipeline traffic (an activation send, or a pre-posted recv
// when the overlap engine runs), so OpIndex 0 lands inside "p2p.*". A
// message may be sitting undelivered in a mailbox at crash time; recovery
// must drain it (the comm layer's abort drain) and the restored run must
// still finish bitwise identical to an uninterrupted synchronous run —
// in both synchronous and fully overlapped mode, since overlap is
// bitwise-neutral.
func TestCrashMidP2PBitwise(t *testing.T) {
	const steps = 6
	cfg := tinyCfg(core.Topology{TP: 1, CP: 1, PP: 2, DP: 2}, fsdp.ZeRO2)
	wantState, wantLosses := referenceState(t, cfg, steps)

	overlaps := []struct {
		name string
		ov   core.OverlapConfig
	}{
		{"sync", core.OverlapConfig{}},
		{"overlapped", core.OverlapConfig{Params: 2, Grads: true, P2P: 2}},
	}
	for _, tc := range overlaps {
		t.Run(tc.name, func(t *testing.T) {
			runCfg := cfg
			runCfg.Overlap = tc.ov
			ctl := &Controller{
				Cfg: runCfg, Gen: tinyGen(runCfg),
				CheckpointEvery: 2,
				Plan: NewPlan(Fault{
					Kind: Crash, Rank: 0, Step: 3, OpIndex: 0,
				}),
				Timeout: 30 * time.Second,
			}
			losses, err := ctl.Run(steps)
			if err != nil {
				t.Fatalf("controller did not recover: %v", err)
			}
			if ctl.Restarts != 1 || len(ctl.Failures) != 1 {
				t.Fatalf("restarts=%d failures=%d, want 1/1", ctl.Restarts, len(ctl.Failures))
			}
			var ce *CrashError
			if !errors.As(ctl.Failures[0], &ce) {
				t.Fatalf("failure cause %v does not unwrap to *CrashError", ctl.Failures[0])
			}
			if !strings.HasPrefix(ce.Op, "p2p.") {
				t.Fatalf("crash landed in %q, want a p2p op — the scenario did not exercise mid-P2P failure", ce.Op)
			}
			if !bytes.Equal(fullState(t, ctl.Cluster), wantState) {
				t.Fatal("recovered run diverged bitwise from the uninterrupted synchronous reference")
			}
			for s, want := range wantLosses {
				if losses[s] != want {
					t.Fatalf("step %d loss %v != reference %v", s, losses[s], want)
				}
			}
		})
	}
}
