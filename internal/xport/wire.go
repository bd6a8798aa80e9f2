package xport

import (
	"encoding/binary"
	"unsafe"

	"disttrain/internal/tensor"
)

// hostLE reports whether this machine stores integers the way the wire
// does. On such a host an []int32 or []float32 already is its own wire
// encoding and the codec moves it as bytes; elsewhere wire32 and fromWire32
// fall back to per-element conversion.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rawBytes views s as the bytes of its backing array, in host order.
func rawBytes[T int8 | int32 | float32](s []T) []byte {
	var elem T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), int(unsafe.Sizeof(elem))*len(s))
}

// wire32 returns the little-endian wire bytes of s: s itself, viewed in
// place, on a little-endian host; an encoded copy otherwise.
func wire32[T int32 | float32](s []T) []byte {
	if hostLE {
		return rawBytes(s)
	}
	out := append([]byte(nil), rawBytes(s)...)
	swap32(out)
	return out
}

// fromWire32 converts s, whose backing bytes were just filled off the wire
// through rawBytes, to host order in place — nothing to do on a little-endian
// host.
func fromWire32[T int32 | float32](s []T) {
	if !hostLE {
		swap32(rawBytes(s))
	}
}

// swap32 reverses the byte order of every 4-byte element of b.
func swap32(b []byte) {
	for ; len(b) >= 4; b = b[4:] {
		b[0], b[1], b[2], b[3] = b[3], b[2], b[1], b[0]
	}
}

// Frame sections are lent. A ring AllReduce moves the same few
// megabyte-sized chunks round after round, and a parameter server receives
// one int8 gradient payload per worker-step; allocating each one fresh made
// the collector the busiest part of the data plane. ReadFrame draws every
// large Vec and Data section from the package's lender of its element type,
// and Frame.Release hands them back — as a finished worker does with its
// gradient store and velocity, which the coordinator then decodes the DONE
// reports into. A lender keeps vectors by exact length (the traffic is ring
// chunks of two lengths, model-length vectors and their int8 payloads) and
// drops them after every collection cycle, so an idle process gives the
// memory back; a frame that is never released is simply collected.

// minPooledBytes is the smallest section worth lending; below it a plain
// allocation is cheaper than the lender's round trip.
const minPooledBytes = 64 << 10

// sections is the package's lender of one element type.
type sections[T float32 | byte] struct{ tensor.Lender[T] }

var (
	vecs  sections[float32]
	datas sections[byte]
)

func init() {
	vecs.DropEachCycle()
	datas.DropEachCycle()
}

// minPooled is the smallest length, in elements, worth lending.
func (*sections[T]) minPooled() int {
	var elem T
	return minPooledBytes / int(unsafe.Sizeof(elem))
}

// of returns the lender of sections of n elements: nil, which makes and
// keeps nothing, when n is too small to lend.
func (s *sections[T]) of(n int) *tensor.Lender[T] {
	if n < s.minPooled() {
		return nil
	}
	return &s.Lender
}

// NewVec returns a Vec of n elements, lent when n is large. Its contents are
// arbitrary: the caller overwrites all of it. ReadFrame fills received
// frames' Vecs from here; a receiver that expands a compressed payload into
// Vec does the same, so that Release takes back either kind.
func NewVec(n int) []float32 { return vecs.of(n).Get(n) }

// Release hands f.Vec and f.Data back to the package's lenders and clears
// them. Call it on a received frame once its sections have been consumed, or
// on any vector its owner is done with; after Release neither the frame nor
// any slice of its sections may be used. Releasing is optional — an
// unreleased section is ordinary garbage — and a section the lenders did not
// lend is taken like one they did. A posted Vec is its poster's and stays.
func (f *Frame) Release() {
	if !f.posted {
		vecs.of(len(f.Vec)).Put(f.Vec)
	}
	datas.of(len(f.Data)).Put(f.Data)
	f.Vec, f.Data = nil, nil
}
