package nn

import (
	"bytes"
	"testing"

	"disttrain/internal/rng"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewMiniCNN(rng.New(1), 5)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	want := m.FlatParams(nil)

	m2 := NewMiniCNN(rng.New(99), 5) // different weights
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got := m2.FlatParams(nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	m := NewMiniCNN(rng.New(1), 5)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewMiniVGG(rng.New(1), 5)
	if err := other.Load(&buf); err == nil {
		t.Fatal("loaded checkpoint into mismatched architecture")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	m := NewMLP(rng.New(1), 2, 3, 2)
	if err := m.Load(bytes.NewReader([]byte("not a checkpoint at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := m.Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	m := NewMLP(rng.New(2), 2, 4, 2)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-8]
	if err := m.Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestCheckpointStableAcrossTraining(t *testing.T) {
	// Save, train a little, load: must be back at the saved point.
	r := rng.New(3)
	m := NewMLP(r, 2, 8, 2)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := m.FlatParams(nil)
	moved := m.FlatParams(nil)
	for i := range moved {
		moved[i] += 0.5
	}
	m.SetFlatParams(moved)
	if err := m.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got := m.FlatParams(nil)
	for i := range saved {
		if got[i] != saved[i] {
			t.Fatal("load did not restore saved state")
		}
	}
}
