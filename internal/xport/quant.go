package xport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// QuantCodec identifies a compressed-vector encoding carried in a frame's
// Data blob. The frame wire format itself is unchanged: a quantized payload
// is a Data section in an ordinary frame (Vec left empty), so old readers
// reject nothing at the framing layer and the CRC still covers the payload.
type QuantCodec uint8

const (
	// QuantInt8 is the symmetric 8-bit encoding of grad.Quantized8:
	// value = Scale·int8, one byte per element plus the scale.
	QuantInt8 QuantCodec = 1
	// QuantF16 is IEEE 754 binary16, two bytes per element, no scale.
	QuantF16 QuantCodec = 2
)

// QuantVec is a quantized float vector in wire form. Exactly one of I8/H16
// is populated, matching Codec; Scale is meaningful for QuantInt8 only.
//
// Wire layout (inside Frame.Data, little-endian):
//
//	codec uint8 | n uint32 | scale float32 | payload
//	  QuantInt8: payload = n bytes (int8)
//	  QuantF16:  payload = 2n bytes (uint16)
//
// The explicit element count is validated against the remaining length so a
// corrupted blob is rejected before any allocation larger than its actual
// size.
type QuantVec struct {
	Codec QuantCodec
	Scale float32
	I8    []int8
	H16   []uint16
}

const quantHeaderLen = 1 + 4 + 4

// Len returns the number of float elements the vector decodes to.
func (q *QuantVec) Len() int {
	if q.Codec == QuantF16 {
		return len(q.H16)
	}
	return len(q.I8)
}

// EncodedLen returns the wire size of the quantized payload.
func (q *QuantVec) EncodedLen() int {
	if q.Codec == QuantF16 {
		return quantHeaderLen + 2*len(q.H16)
	}
	return quantHeaderLen + len(q.I8)
}

// AppendEncode appends the wire encoding to dst and returns the result.
func (q *QuantVec) AppendEncode(dst []byte) []byte {
	dst = slices.Grow(dst, q.EncodedLen())
	dst = append(dst, byte(q.Codec))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Len()))
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(q.Scale))
	switch q.Codec {
	case QuantF16:
		for _, h := range q.H16 {
			dst = binary.LittleEndian.AppendUint16(dst, h)
		}
	default:
		dst = append(dst, rawBytes(q.I8)...)
	}
	return dst
}

// Int8Payload lays out the wire form of an n-element QuantInt8 vector in
// buf's storage (grown when too small) and returns it with codes viewing its
// payload bytes, so a sender quantizes straight into the blob it ships
// instead of copying the codes there. The scale is known only once the
// vector has been scanned: PutInt8Scale records it, and data is complete —
// what AppendEncode would have produced — after both.
func Int8Payload(buf []byte, n int) (data []byte, codes []int8) {
	data = slices.Grow(buf[:0], quantHeaderLen+n)[:quantHeaderLen+n]
	data[0] = byte(QuantInt8)
	binary.LittleEndian.PutUint32(data[1:5], uint32(n))
	return data, int8View(data[quantHeaderLen:])
}

// int8View views b's bytes as int8 codes: a byte has no byte order, so the
// view is the decoding (and the encoding) on every host.
func int8View(b []byte) []int8 {
	return unsafe.Slice((*int8)(unsafe.Pointer(unsafe.SliceData(b))), len(b))
}

// PutInt8Scale sets the scale field of a payload laid out by Int8Payload.
func PutInt8Scale(data []byte, scale float32) {
	binary.LittleEndian.PutUint32(data[5:quantHeaderLen], math.Float32bits(scale))
}

// DecodeQuantVec decodes a quantized payload produced by AppendEncode.
// Malformed input — unknown codec, element count inconsistent with the blob
// length — yields an error, never a panic, and never an allocation beyond
// the blob's own size. An int8 payload is not copied: I8 views data's bytes
// (a byte has no byte order, so the view is the decoding on every host) and
// is valid only as long as the caller keeps data — a received frame's Data
// is the receiver's alone, so that is the receiver's to decide.
func DecodeQuantVec(data []byte) (QuantVec, error) {
	if len(data) < quantHeaderLen {
		return QuantVec{}, fmt.Errorf("xport: quant payload %d bytes, need at least %d", len(data), quantHeaderLen)
	}
	q := QuantVec{
		Codec: QuantCodec(data[0]),
		Scale: math.Float32frombits(binary.LittleEndian.Uint32(data[5:9])),
	}
	n := int(binary.LittleEndian.Uint32(data[1:5]))
	rest := data[quantHeaderLen:]
	switch q.Codec {
	case QuantInt8:
		if n != len(rest) {
			return QuantVec{}, fmt.Errorf("xport: int8 quant count %d inconsistent with %d payload bytes", n, len(rest))
		}
		q.I8 = int8View(rest)
	case QuantF16:
		if 2*n != len(rest) {
			return QuantVec{}, fmt.Errorf("xport: f16 quant count %d inconsistent with %d payload bytes", n, len(rest))
		}
		q.H16 = make([]uint16, n)
		for i := range q.H16 {
			q.H16[i] = binary.LittleEndian.Uint16(rest[2*i : 2*i+2])
		}
	default:
		return QuantVec{}, fmt.Errorf("xport: unknown quant codec %d", q.Codec)
	}
	return q, nil
}
