package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Training-state checkpoint format: a header with the training counters and
// optimizer state, followed by an embedded model checkpoint (Save's exact
// byte stream, so the model section shares Save/Load's shape guard).
//
//	magic    uint32  "DTST"
//	version  uint32
//	step     uint64  last completed global iteration
//	draws    uint64  mini-batches drawn from the sampler so far
//	loss     float64 training-loss EWMA
//	lossInit uint8   1 if the EWMA has been seeded
//	augSet   uint8   1 if an augmentation-RNG state follows   (v2+)
//	aug      [4]uint64 raw xoshiro words of the aug stream    (v2+, if augSet)
//	nVel     uint32  optimizer velocity length (0 = none saved)
//	vel      []float32
//	model    Save() stream
//
// Version history: v1 had no augmentation-RNG section; v2 added it so a
// restored worker replays the exact augmentation sequence the dead one
// would have drawn. LoadState still reads v1 checkpoints (AugRNGSet stays
// false); SaveState always writes v2.
const (
	stateMagic   = 0x44545354 // "DTST"
	stateVersion = 2
)

// TrainState is the extra training state a live worker checkpoints beyond
// the model parameters: counters to resume the data stream and the
// optimizer's momentum, so a restored replica continues exactly where the
// dead one stopped.
type TrainState struct {
	// Step is the last completed global iteration.
	Step uint64
	// Draws counts mini-batches drawn from the sampler; a restored worker
	// fast-forwards its sampler by this many draws to rejoin the stream.
	Draws uint64
	// Loss and LossInit carry the training-loss EWMA across the restart.
	Loss     float64
	LossInit bool
	// AugRNG is the data-augmentation stream's raw RNG state (rng.State),
	// valid when AugRNGSet is true. Unlike the sampler — which replays by
	// fast-forwarding Draws — the augmentation stream advances a
	// data-dependent number of times per batch, so only the exact state
	// restores it. Checkpoints from runs without augmentation (and all v1
	// checkpoints) leave AugRNGSet false.
	AugRNG    [4]uint64
	AugRNGSet bool
	// Velocity is the optimizer's momentum buffer (nil to skip).
	Velocity []float32
}

// SaveState writes a training-state checkpoint — model plus TrainState — to
// path atomically: the bytes land in a temporary file first and are renamed
// into place, so a crash mid-write never leaves a truncated checkpoint.
func SaveState(path string, m *Model, st *TrainState) error {
	return SaveFlatState(path, m.segs, m.Weights(), st)
}

// SaveFlatState is SaveState for a parameter vector held outside a model
// (the parameter server's), laid out as segs: the bytes are those SaveState
// writes for a model holding params, and LoadState restores them into one.
func SaveFlatState(path string, segs []Segment, params []float32, st *TrainState) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := writeState(f, segs, params, st); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func writeState(w io.Writer, segs []Segment, params []float32, st *TrainState) error {
	bw := bufio.NewWriterSize(w, ioChunk)
	writeU32 := func(v uint32) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := writeU32(stateMagic); err != nil {
		return err
	}
	if err := writeU32(stateVersion); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, st.Step); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, st.Draws); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(st.Loss)); err != nil {
		return err
	}
	var li uint8
	if st.LossInit {
		li = 1
	}
	if err := binary.Write(bw, binary.LittleEndian, li); err != nil {
		return err
	}
	var as uint8
	if st.AugRNGSet {
		as = 1
	}
	if err := binary.Write(bw, binary.LittleEndian, as); err != nil {
		return err
	}
	if st.AugRNGSet {
		if err := binary.Write(bw, binary.LittleEndian, st.AugRNG[:]); err != nil {
			return err
		}
	}
	if err := writeU32(uint32(len(st.Velocity))); err != nil {
		return err
	}
	if err := writeF32s(bw, st.Velocity); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return writeCheckpoint(w, segs, params)
}

// LoadState restores a checkpoint written by SaveState: the model's
// parameters are loaded in place and the TrainState is returned. The
// model's architecture must match the checkpoint (Load's guard).
func LoadState(path string, m *Model) (*TrainState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadState(f, m)
}

// ReadState decodes a training-state stream (v1 or v2) into m and returns
// its TrainState. Any input is either decoded or refused with an error, and
// every length is checked against the model or a fixed cap before anything
// is allocated for it, so no input makes it allocate more than a few times
// the model's size.
func ReadState(r io.Reader, m *Model) (*TrainState, error) {
	br := bufio.NewReader(r)
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	magic, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("nn: reading state header: %w", err)
	}
	if magic != stateMagic {
		return nil, fmt.Errorf("nn: not a training-state checkpoint (magic %#x)", magic)
	}
	version, err := readU32()
	if err != nil {
		return nil, err
	}
	if version < 1 || version > stateVersion {
		return nil, fmt.Errorf("nn: unsupported training-state version %d (this build reads 1..%d)", version, stateVersion)
	}
	st := &TrainState{}
	if err := binary.Read(br, binary.LittleEndian, &st.Step); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &st.Draws); err != nil {
		return nil, err
	}
	var bits uint64
	if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
		return nil, err
	}
	st.Loss = math.Float64frombits(bits)
	var li uint8
	if err := binary.Read(br, binary.LittleEndian, &li); err != nil {
		return nil, err
	}
	st.LossInit = li == 1
	if version >= 2 {
		var as uint8
		if err := binary.Read(br, binary.LittleEndian, &as); err != nil {
			return nil, err
		}
		if as == 1 {
			if err := binary.Read(br, binary.LittleEndian, st.AugRNG[:]); err != nil {
				return nil, err
			}
			st.AugRNGSet = true
		}
	}
	nVel, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(nVel) > m.NumParams() {
		return nil, fmt.Errorf("nn: state velocity has %d entries, model has %d params", nVel, m.NumParams())
	}
	if nVel > 0 {
		st.Velocity = make([]float32, nVel)
		if err := readF32s(br, st.Velocity); err != nil {
			return nil, err
		}
	}
	if err := m.Load(br); err != nil {
		return nil, err
	}
	return st, nil
}

// Cadence describes periodic checkpoint writes: every Every completed
// iterations, into Dir. The zero value disables checkpointing.
type Cadence struct {
	Dir   string
	Every int
}

// Enabled reports whether the cadence writes checkpoints at all.
func (c Cadence) Enabled() bool { return c.Dir != "" && c.Every > 0 }

// Due reports whether a checkpoint is due after completing iteration step.
func (c Cadence) Due(step int) bool {
	return c.Enabled() && step > 0 && step%c.Every == 0
}

// Path is the checkpoint file for one worker rank; rank -1 names the
// parameter server's checkpoint.
func (c Cadence) Path(rank int) string {
	if rank < 0 {
		return filepath.Join(c.Dir, "ps.ckpt")
	}
	return filepath.Join(c.Dir, fmt.Sprintf("worker-%d.ckpt", rank))
}
