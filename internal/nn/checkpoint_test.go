package nn

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"disttrain/internal/rng"
)

// TestTrainStateRoundTrip saves the full v2 training state — counters,
// EWMA, augmentation-RNG state, velocity, model — and verifies every field
// restores exactly.
func TestTrainStateRoundTrip(t *testing.T) {
	m := NewMLP(rng.New(3), 2, 8, 2)
	vel := make([]float32, m.NumParams())
	for i := range vel {
		vel[i] = float32(i) * 0.25
	}
	aug := rng.New(99)
	aug.Uint64() // mid-stream state, not a fresh seed
	st := &TrainState{
		Step:      12,
		Draws:     17,
		Loss:      0.625,
		LossInit:  true,
		AugRNG:    aug.State(),
		AugRNGSet: true,
		Velocity:  vel,
	}
	want := m.FlatParams(nil)
	path := filepath.Join(t.TempDir(), "w.ckpt")
	if err := SaveState(path, m, st); err != nil {
		t.Fatal(err)
	}

	m2 := NewMLP(rng.New(77), 2, 8, 2)
	got, err := LoadState(path, m2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != st.Step || got.Draws != st.Draws || got.Loss != st.Loss || got.LossInit != st.LossInit {
		t.Fatalf("counters mismatch: got %+v want %+v", got, st)
	}
	if !got.AugRNGSet || got.AugRNG != st.AugRNG {
		t.Fatalf("aug RNG state mismatch: got set=%v %v want %v", got.AugRNGSet, got.AugRNG, st.AugRNG)
	}
	for i := range vel {
		if got.Velocity[i] != vel[i] {
			t.Fatalf("velocity mismatch at %d", i)
		}
	}
	for i, p := range m2.FlatParams(nil) {
		if p != want[i] {
			t.Fatalf("model params mismatch at %d", i)
		}
	}
}

// TestTrainStateNoAug verifies a state saved without an augmentation stream
// round-trips with AugRNGSet false (the flag distinguishes "no aug" from
// "aug at the zero state").
func TestTrainStateNoAug(t *testing.T) {
	m := NewMLP(rng.New(4), 2, 4, 2)
	path := filepath.Join(t.TempDir(), "w.ckpt")
	if err := SaveState(path, m, &TrainState{Step: 3, Draws: 3}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(path, NewMLP(rng.New(4), 2, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got.AugRNGSet {
		t.Fatal("AugRNGSet true for a checkpoint saved without augmentation")
	}
}

// TestLoadStateReadsV1 hand-encodes the legacy v1 layout (no
// augmentation-RNG section) and verifies LoadState still reads it — the
// compatibility contract the v2 bump documents.
func TestLoadStateReadsV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := os.WriteFile(path, v1Fixture(t, NewMLP(rng.New(5), 2, 4, 2)), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(path, NewMLP(rng.New(6), 2, 4, 2))
	if err != nil {
		t.Fatalf("v1 checkpoint rejected: %v", err)
	}
	if got.Step != 9 || got.Draws != 11 || got.Loss != 0.5 || !got.LossInit {
		t.Fatalf("v1 fields mismatch: %+v", got)
	}
	if got.AugRNGSet {
		t.Fatal("v1 checkpoint produced AugRNGSet true")
	}
	if len(got.Velocity) != 3 || got.Velocity[2] != 3 {
		t.Fatalf("v1 velocity mismatch: %v", got.Velocity)
	}
}

// v1Fixture hand-encodes a v1 training state for m: step 9, draws 11, loss
// 0.5 (seeded), velocity {1, 2, 3}.
func v1Fixture(t testing.TB, m *Model) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for _, v := range []any{
		uint32(stateMagic), uint32(1),
		uint64(9), uint64(11), math.Float64bits(0.5), uint8(1), // step, draws, loss, lossInit
		uint32(3), []float32{1, 2, 3},
	} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocatedBy returns the bytes allocated while fn runs, as the heap counts
// them.
func allocatedBy(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// FuzzReadState: no input panics the checkpoint decoder or makes it
// allocate beyond a bound set by the model — the velocity (the parameters
// are read into the model's store), the readers' and chunk buffers and one
// capped name per segment — and whatever it accepts re-encodes to a state
// that decodes the same.
func FuzzReadState(f *testing.F) {
	m := NewMLP(rng.New(3), 2, 8, 2)
	enc := func(st *TrainState) []byte {
		var buf bytes.Buffer
		if err := writeState(&buf, m.Segments(), m.Weights(), st); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	vel := make([]float32, m.NumParams())
	for i := range vel {
		vel[i] = float32(i) / 8
	}
	full := enc(&TrainState{Step: 12, Draws: 17, Loss: 0.625, LossInit: true,
		AugRNG: [4]uint64{1, 2, 3, 4}, AugRNGSet: true, Velocity: vel})
	f.Add(full)
	f.Add(enc(&TrainState{Step: 3, Draws: 3}))
	f.Add(v1Fixture(f, m))
	f.Add(full[:len(full)/2])
	f.Add([]byte{})
	bound := uint64(4*m.NumParams()) + uint64(4096*(len(m.Segments())+4)) + 64<<10
	f.Fuzz(func(t *testing.T, data []byte) {
		var st *TrainState
		var err error
		if a := allocatedBy(func() { st, err = ReadState(bytes.NewReader(data), m) }); a > bound {
			t.Fatalf("decoder allocated %d bytes for %d input bytes, bound %d", a, len(data), bound)
		}
		if err != nil {
			return
		}
		again, err := ReadState(bytes.NewReader(enc(st)), m)
		if err != nil {
			t.Fatalf("accepted state failed to decode after re-encoding: %v", err)
		}
		if again.Step != st.Step || again.Draws != st.Draws || math.Float64bits(again.Loss) != math.Float64bits(st.Loss) ||
			again.LossInit != st.LossInit || again.AugRNGSet != st.AugRNGSet || again.AugRNG != st.AugRNG ||
			!slices.EqualFunc(again.Velocity, st.Velocity, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
			t.Fatalf("re-encoding changed the state: %+v then %+v", st, again)
		}
	})
}

// TestLoadStateRejectsFutureVersion guards the version check.
func TestLoadStateRejectsFutureVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v9.ckpt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{stateMagic, 9} {
		if err := binary.Write(f, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if _, err := LoadState(path, NewMLP(rng.New(1), 2, 4, 2)); err == nil {
		t.Fatal("future-version checkpoint accepted")
	}
}

// TestSaveFlatStateBytesPinned: a parameter-server checkpoint written from a
// bare vector and the model's segment table is, byte for byte, the one
// SaveState writes for a model holding that vector — whose bytes are pinned
// to those written when the model checkpoint still went through a flat copy
// — and LoadState restores the vector from it.
func TestSaveFlatStateBytesPinned(t *testing.T) {
	const want = "1baac2a919eb205684a43c2d25f81e5334867843b671759708b5480a7c52e2c4"
	m := NewMiniResNetBN(rng.New(5), 4)
	dir := t.TempDir()
	st := &TrainState{Step: 7}
	viaModel, viaVector := filepath.Join(dir, "model.ckpt"), filepath.Join(dir, "ps.ckpt")
	if err := SaveState(viaModel, m, st); err != nil {
		t.Fatal(err)
	}
	vec := m.FlatParams(nil)
	if err := SaveFlatState(viaVector, m.Segments(), vec, st); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{viaModel, viaVector} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
			t.Fatalf("%s: %d bytes hashing to %x, want %s", filepath.Base(path), len(b), sum, want)
		}
	}
	into := NewMiniResNetBN(nil, 4)
	got, err := LoadState(viaVector, into)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 7 || got.Velocity != nil || !slices.EqualFunc(into.Weights(), vec,
		func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
		t.Fatalf("restored step %d, velocity %d, parameters equal %v", got.Step, len(got.Velocity),
			slices.Equal(into.Weights(), vec))
	}
}
