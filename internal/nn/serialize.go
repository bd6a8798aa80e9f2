package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Checkpoint format: a small header guarding against shape drift, followed
// by the raw little-endian float32 parameter vector.
//
//	magic   uint32  "DTCP"
//	version uint32
//	segs    uint32  number of segments
//	per segment: nameLen uint32, name bytes, length uint32
//	params  []float32
const (
	checkpointMagic   = 0x44544350 // "DTCP"
	checkpointVersion = 1
)

// ioChunk is the buffer a checkpoint's float sections stream through.
const ioChunk = 64 << 10

// Save writes the model's parameters as a checkpoint, from the store where
// it lies.
func (m *Model) Save(w io.Writer) error {
	return writeCheckpoint(w, m.segs, m.Weights())
}

// writeCheckpoint writes params, laid out as segs, as a model checkpoint.
func writeCheckpoint(w io.Writer, segs []Segment, params []float32) error {
	bw := bufio.NewWriterSize(w, ioChunk)
	writeU32 := func(v uint32) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := writeU32(checkpointMagic); err != nil {
		return err
	}
	if err := writeU32(checkpointVersion); err != nil {
		return err
	}
	if err := writeU32(uint32(len(segs))); err != nil {
		return err
	}
	for _, s := range segs {
		if err := writeU32(uint32(len(s.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(s.Name); err != nil {
			return err
		}
		if err := writeU32(uint32(s.Len)); err != nil {
			return err
		}
	}
	if err := writeF32s(bw, params); err != nil {
		return err
	}
	return bw.Flush()
}

// writeF32s writes v little-endian through bw's own buffer, so no encoded
// copy of v ever exists whole.
func writeF32s(bw *bufio.Writer, v []float32) error {
	for len(v) > 0 {
		buf := bw.AvailableBuffer()
		n := min(len(v), cap(buf)/4)
		if n == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
			continue
		}
		for _, x := range v[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		v = v[n:]
	}
	return nil
}

// readF32s fills v with little-endian floats from r, a chunk at a time.
func readF32s(r io.Reader, v []float32) error {
	buf := make([]byte, min(4*len(v), ioChunk))
	for len(v) > 0 {
		n := min(len(v), len(buf)/4)
		if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
			return err
		}
		for i := range v[:n] {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		v = v[n:]
	}
	return nil
}

// Load restores parameters saved by Save into the model, reading them
// straight into its store. The model's architecture (segment names and
// sizes) must match the checkpoint exactly; that is checked before any
// parameter is touched, but a stream that ends inside the parameters leaves
// them partly overwritten.
func (m *Model) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	magic, err := readU32()
	if err != nil {
		return fmt.Errorf("nn: reading checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: not a checkpoint (magic %#x)", magic)
	}
	version, err := readU32()
	if err != nil {
		return err
	}
	if version != checkpointVersion {
		return fmt.Errorf("nn: unsupported checkpoint version %d", version)
	}
	nSegs, err := readU32()
	if err != nil {
		return err
	}
	segs := m.Segments()
	if int(nSegs) != len(segs) {
		return fmt.Errorf("nn: checkpoint has %d segments, model has %d", nSegs, len(segs))
	}
	for i := 0; i < int(nSegs); i++ {
		nameLen, err := readU32()
		if err != nil {
			return err
		}
		if nameLen > 4096 {
			return fmt.Errorf("nn: implausible segment name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return err
		}
		segLen, err := readU32()
		if err != nil {
			return err
		}
		if string(name) != segs[i].Name || int(segLen) != segs[i].Len {
			return fmt.Errorf("nn: checkpoint segment %d is %s[%d], model expects %s[%d]",
				i, name, segLen, segs[i].Name, segs[i].Len)
		}
	}
	if err := readF32s(br, m.Weights()); err != nil {
		return fmt.Errorf("nn: reading parameters: %w", err)
	}
	return nil
}
