// Package xport is the live transport layer: typed message frames with a
// length-prefixed, CRC-checked binary encoding, and endpoint backends that
// carry them — an in-process channel transport for tests and single-binary
// harnesses, and a TCP transport for real multi-process runs.
//
// Where internal/simnet moves messages through the deterministic
// discrete-event simulator, xport moves the same logical messages over a
// real wire: framing, socket backpressure, connection setup and peer
// failures all happen for real. internal/live builds the distributed
// training algorithms' collectives on top of these endpoints.
package xport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"slices"
)

// Frame is one typed message between ranks. The field set is the union of
// what the seven algorithms' messages carry (mirroring simnet.Msg): a kind
// tag, the sender's rank, a round clock, a segment/chunk index, one scalar
// (gossip weights), a float payload, sparse indices, and an opaque byte
// blob for control-plane payloads (rendezvous addresses, metric digests).
type Frame struct {
	Kind  uint16
	From  int32
	Clock int32
	Seg   int32
	Aux   float64
	Idx   []int32
	Vec   []float32
	Data  []byte
}

// Wire format: a fixed prelude followed by the payload.
//
//	magic   uint16  (frameMagic)
//	length  uint32  (payload bytes)
//	crc32   uint32  (IEEE, over the payload)
//	payload:
//	  kind uint16 | from int32 | clock int32 | seg int32 | aux float64
//	  nIdx uint32 | nVec uint32 | nData uint32
//	  idx []int32 | vec []float32 | data []byte
//
// All integers are little-endian. The length prefix lets a reader skip or
// reject a frame without parsing it; the section counts must add up to the
// bounded length before anything is allocated; the CRC rejects corruption
// before the frame reaches the caller.
const (
	frameMagic  = 0xD7A1
	preludeLen  = 2 + 4 + 4
	fixedPayLen = 2 + 4 + 4 + 4 + 8 + 4 + 4 + 4
	headerLen   = preludeLen + fixedPayLen

	// MaxFrameBytes bounds the payload length a reader accepts. A hostile
	// or corrupted length prefix must never make the decoder allocate
	// unbounded memory.
	MaxFrameBytes = 64 << 20
)

// EncodedLen returns the full wire size of the frame.
func (f *Frame) EncodedLen() int {
	return headerLen + 4*len(f.Idx) + 4*len(f.Vec) + len(f.Data)
}

// header builds the prelude and the fixed section; idx and vec are the
// wire bytes of f.Idx and f.Vec (see wire32). The CRC is folded over the
// fixed section and then the three variable sections, so no contiguous
// copy of the payload ever has to exist.
func (f *Frame) header(idx, vec []byte) (h [headerLen]byte) {
	le := binary.LittleEndian
	le.PutUint16(h[0:], frameMagic)
	le.PutUint32(h[2:], uint32(fixedPayLen+len(idx)+len(vec)+len(f.Data)))
	p := h[preludeLen:]
	le.PutUint16(p[0:], f.Kind)
	le.PutUint32(p[2:], uint32(f.From))
	le.PutUint32(p[6:], uint32(f.Clock))
	le.PutUint32(p[10:], uint32(f.Seg))
	le.PutUint64(p[14:], math.Float64bits(f.Aux))
	le.PutUint32(p[22:], uint32(len(f.Idx)))
	le.PutUint32(p[26:], uint32(len(f.Vec)))
	le.PutUint32(p[30:], uint32(len(f.Data)))
	crc := crc32.Update(0, crc32.IEEETable, p)
	crc = crc32.Update(crc, crc32.IEEETable, idx)
	crc = crc32.Update(crc, crc32.IEEETable, vec)
	crc = crc32.Update(crc, crc32.IEEETable, f.Data)
	le.PutUint32(h[6:], crc)
	return h
}

// AppendEncode appends the encoded frame to dst and returns the result.
func (f *Frame) AppendEncode(dst []byte) []byte {
	idx, vec := wire32(f.Idx), wire32(f.Vec)
	h := f.header(idx, vec)
	dst = slices.Grow(dst, f.EncodedLen())
	dst = append(dst, h[:]...)
	dst = append(dst, idx...)
	dst = append(dst, vec...)
	return append(dst, f.Data...)
}

// WriteFrame writes f to w as one vectored write: the header and the three
// sections go out where they lie, with no encode buffer in between (a
// net.Conn takes them in one writev; any other writer gets them in order).
// f is not retained once WriteFrame returns.
func WriteFrame(w io.Writer, f *Frame) error {
	idx, vec := wire32(f.Idx), wire32(f.Vec)
	h := f.header(idx, vec)
	bufs := net.Buffers{h[:], idx, vec, f.Data}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads and decodes one frame from r, streaming each section
// straight into the slice that will hold it. maxBytes bounds the accepted
// payload length (0 means MaxFrameBytes). Malformed input — a bad magic, an
// oversized or undersized length, section counts inconsistent with the
// length, a CRC mismatch — yields an error, never a panic, and nothing is
// allocated before the counts are proven consistent with the bounded
// length; a truncated stream yields io.ErrUnexpectedEOF (or io.EOF on a
// clean boundary). A large Vec or Data comes from the recycler: see
// Frame.Release.
func ReadFrame(r io.Reader, maxBytes int) (Frame, error) {
	if maxBytes <= 0 {
		maxBytes = MaxFrameBytes
	}
	var h [headerLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return Frame{}, err // io.EOF only when not one byte arrived
	}
	le := binary.LittleEndian
	if magic := le.Uint16(h[0:]); magic != frameMagic {
		return Frame{}, fmt.Errorf("xport: bad frame magic %#04x", magic)
	}
	payLen := int(le.Uint32(h[2:]))
	wantCRC := le.Uint32(h[6:])
	if payLen < fixedPayLen {
		return Frame{}, fmt.Errorf("xport: frame payload %d bytes, need at least %d", payLen, fixedPayLen)
	}
	if payLen > maxBytes {
		return Frame{}, fmt.Errorf("xport: frame payload %d bytes exceeds limit %d", payLen, maxBytes)
	}
	p := h[preludeLen:]
	f := Frame{
		Kind:  le.Uint16(p[0:]),
		From:  int32(le.Uint32(p[2:])),
		Clock: int32(le.Uint32(p[6:])),
		Seg:   int32(le.Uint32(p[10:])),
		Aux:   math.Float64frombits(le.Uint64(p[14:])),
	}
	nIdx, nVec, nData := int(le.Uint32(p[22:])), int(le.Uint32(p[26:])), int(le.Uint32(p[30:]))
	// Counts are attacker-controlled; 4*n arithmetic must not overflow
	// before they are checked against the bounded length.
	rest := payLen - fixedPayLen
	if nIdx < 0 || nVec < 0 || nData < 0 ||
		nIdx > rest/4 || nVec > rest/4 || nData > rest ||
		4*nIdx+4*nVec+nData != rest {
		return Frame{}, fmt.Errorf("xport: frame sections (%d idx, %d vec, %d data) inconsistent with payload %d",
			nIdx, nVec, nData, payLen)
	}
	if nIdx > 0 {
		f.Idx = make([]int32, nIdx)
	}
	f.Vec = NewVec(nVec)
	f.Data = datas.get(nData)
	crc := crc32.Update(0, crc32.IEEETable, p)
	err := readSection(r, rawBytes(f.Idx), &crc)
	if err == nil {
		err = readSection(r, rawBytes(f.Vec), &crc)
	}
	if err == nil {
		err = readSection(r, f.Data, &crc)
	}
	if err == nil && crc != wantCRC {
		err = fmt.Errorf("xport: frame CRC mismatch (got %#08x, want %#08x)", crc, wantCRC)
	}
	if err != nil {
		f.Release()
		return Frame{}, err
	}
	fromWire32(f.Idx)
	fromWire32(f.Vec)
	return f, nil
}

// readSection fills b from r in cache-sized pieces, folding each into crc
// while it is still hot.
func readSection(r io.Reader, b []byte, crc *uint32) error {
	for len(b) > 0 {
		n := min(len(b), 256<<10)
		if _, err := io.ReadFull(r, b[:n]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		*crc = crc32.Update(*crc, crc32.IEEETable, b[:n])
		b = b[n:]
	}
	return nil
}

// DecodeFrame decodes one frame from the start of buf (prelude included).
// It is ReadFrame over an in-memory buffer, sharing the same validation.
func DecodeFrame(buf []byte, maxBytes int) (Frame, error) {
	return ReadFrame(bytes.NewReader(buf), maxBytes)
}
