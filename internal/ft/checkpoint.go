package ft

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"llama4d/internal/core"
	"llama4d/internal/data"
)

// Checkpoint is a coordinated full-cluster snapshot: the training step, the
// data pipeline's RNG state, and every rank's weights and sharded optimizer
// moments (built on model.SaveParams via core.SaveFullState). Restoring it
// into a freshly built cluster resumes training bitwise-identically to a
// run that never stopped — the property the recovery controller's tests
// assert across TP/CP/PP/DP topologies and all three ZeRO modes.
type Checkpoint struct {
	Step  int64
	Data  []byte // data.Generator.SaveState stream
	State []byte // core.SaveFullState stream (weights + optimizer moments)
}

const checkpointMagic = uint32(0x4C344443) // "L4DC"

// Save takes a coordinated checkpoint of the cluster between steps: the
// cluster quiesces (no ranks running), parameters materialise (ZeRO-3), and
// every rank's state serializes in deterministic rank order. nextStep is
// the step the restored run will execute first.
func Save(cl *core.Cluster, gen *data.Generator, nextStep int64) (*Checkpoint, error) {
	var state bytes.Buffer
	if err := cl.SaveFullState(&state); err != nil {
		return nil, fmt.Errorf("ft: checkpointing cluster state: %w", err)
	}
	var ds bytes.Buffer
	if err := gen.SaveState(&ds); err != nil {
		return nil, fmt.Errorf("ft: checkpointing data state: %w", err)
	}
	return &Checkpoint{Step: nextStep, Data: ds.Bytes(), State: state.Bytes()}, nil
}

// Restore rebuilds a fresh cluster for cfg — the crashed cluster's world is
// dead and cannot be reused — and loads the checkpoint into it: weights,
// optimizer moments, and the data generator. The returned generator is
// reconstructed purely from the checkpoint stream, so recovery does not
// depend on any in-memory state of the failed run.
func (c *Checkpoint) Restore(cfg core.Config) (*core.Cluster, *data.Generator, error) {
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("ft: rebuilding cluster: %w", err)
	}
	if err := cl.LoadFullState(bytes.NewReader(c.State)); err != nil {
		return nil, nil, fmt.Errorf("ft: restoring cluster state: %w", err)
	}
	gen := &data.Generator{}
	if err := gen.LoadState(bytes.NewReader(c.Data)); err != nil {
		return nil, nil, fmt.Errorf("ft: restoring data state: %w", err)
	}
	return cl, gen, nil
}

// WriteTo serializes the checkpoint (self-describing, restores bitwise).
func (c *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(checkpointMagic); err != nil {
		return n, err
	}
	if err := write(uint64(c.Step)); err != nil {
		return n, err
	}
	for _, sec := range [][]byte{c.Data, c.State} {
		if err := write(uint64(len(sec))); err != nil {
			return n, err
		}
		if err := write(sec); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}
