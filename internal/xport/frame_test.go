package xport

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"
)

func sampleFrames() []Frame {
	return []Frame{
		{},
		{Kind: 7, From: 3, Clock: 42, Seg: -1, Aux: 0.5},
		{Kind: 1, From: -1, Clock: 1 << 30, Vec: []float32{1, -2.5, float32(math.Inf(1)), 0}},
		{Kind: 2, Idx: []int32{0, 5, -3}, Vec: []float32{3.25}, Data: []byte("hello")},
		{Kind: 65535, Aux: math.Inf(-1), Data: make([]byte, 300)},
		{Kind: 9, Vec: []float32{float32(math.NaN())}},
	}
}

func framesEqual(a, b Frame) bool {
	// NaN-safe comparison: compare float payloads bitwise.
	if a.Kind != b.Kind || a.From != b.From || a.Clock != b.Clock || a.Seg != b.Seg {
		return false
	}
	if math.Float64bits(a.Aux) != math.Float64bits(b.Aux) {
		return false
	}
	if !reflect.DeepEqual(a.Idx, b.Idx) || !bytes.Equal(a.Data, b.Data) {
		return false
	}
	if len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Vec {
		if math.Float32bits(a.Vec[i]) != math.Float32bits(b.Vec[i]) {
			return false
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	for i, f := range sampleFrames() {
		buf := f.AppendEncode(nil)
		if len(buf) != f.EncodedLen() {
			t.Errorf("frame %d: encoded %d bytes, EncodedLen says %d", i, len(buf), f.EncodedLen())
		}
		got, err := DecodeFrame(buf, 0)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		// Decode normalizes empty slices to nil; do the same for comparison.
		want := f
		if len(want.Idx) == 0 {
			want.Idx = nil
		}
		if len(want.Vec) == 0 {
			want.Vec = nil
		}
		if len(want.Data) == 0 {
			want.Data = nil
		}
		if !framesEqual(got, want) {
			t.Errorf("frame %d: round-trip mismatch\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestFrameStream(t *testing.T) {
	// Several frames back to back on one stream, then clean EOF.
	var buf bytes.Buffer
	frames := sampleFrames()
	for i := range frames {
		if err := WriteFrame(&buf, &frames[i]); err != nil {
			t.Fatalf("write frame %d: %v", i, err)
		}
	}
	for i := range frames {
		if _, err := ReadFrame(&buf, 0); err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

func TestDecodeRejects(t *testing.T) {
	good := (&Frame{Kind: 3, Vec: []float32{1, 2}}).AppendEncode(nil)
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"truncated prelude", good[:5]},
		{"truncated payload", good[:len(good)-3]},
		{"bad magic", append([]byte{0, 0}, good[2:]...)},
		{"flipped payload byte", flipByte(good, preludeLen+1)},
		{"flipped crc byte", flipByte(good, 7)},
		{"undersized length", patchLen(good, 4)},
		{"oversized length", patchLen(good, MaxFrameBytes+1)},
		{"length past end", patchLen(good, fixedPayLen+1024)},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.buf, 0); err == nil {
			t.Errorf("%s: decode accepted malformed input", tc.name)
		}
	}
}

func TestDecodeRejectsInconsistentSections(t *testing.T) {
	// Claimed section counts must reconcile exactly with the payload
	// length; forge a count and fix up the CRC so only the consistency
	// check can catch it.
	buf := (&Frame{Kind: 1, Vec: []float32{1, 2, 3}}).AppendEncode(nil)
	binary.LittleEndian.PutUint32(buf[preludeLen+26:], 99) // nVec = 99
	binary.LittleEndian.PutUint32(buf[6:10], crc32.ChecksumIEEE(buf[preludeLen:]))
	if _, err := DecodeFrame(buf, 0); err == nil {
		t.Fatal("decode accepted inconsistent section counts")
	}
	// Huge counts whose 4*n arithmetic would overflow naive math.
	buf2 := (&Frame{Kind: 1}).AppendEncode(nil)
	binary.LittleEndian.PutUint32(buf2[preludeLen+22:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(buf2[6:10], crc32.ChecksumIEEE(buf2[preludeLen:]))
	if _, err := DecodeFrame(buf2, 0); err == nil {
		t.Fatal("decode accepted overflowing section count")
	}
}

func TestReadFrameRespectsMax(t *testing.T) {
	f := Frame{Vec: make([]float32, 100)}
	buf := f.AppendEncode(nil)
	if _, err := DecodeFrame(buf, fixedPayLen+40); err == nil {
		t.Fatal("decode accepted frame above the caller's max")
	}
	if _, err := DecodeFrame(buf, fixedPayLen+400); err != nil {
		t.Fatalf("decode rejected frame under the caller's max: %v", err)
	}
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x40
	return c
}

func patchLen(b []byte, n int) []byte {
	c := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(c[2:6], uint32(n))
	return c
}

// FuzzDecodeFrame feeds arbitrary bytes to the decoder. The contract under
// fuzz: every input returns normally — an error or a frame — with no
// panic, no hang, and no allocation beyond the length its prelude declares
// (and none at all when that length is out of bounds); an accepted frame
// re-encodes to bytes that decode to the same frame and that, cut short or
// with one bit flipped, are rejected as checkDamage spells out. Every input
// is also decoded into posted destinations, as checkPosted spells out.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		f.Add(fr.AppendEncode(nil))
	}
	// Control-plane shapes from the live rendezvous protocol: heartbeat
	// (108, progress in Clock), rejoin (109, config fingerprint in Data),
	// and rejoin-ok (110, the comma-separated peer table in Data, elapsed
	// seconds in Aux).
	f.Add((&Frame{Kind: 108, From: 2, Clock: 17}).AppendEncode(nil))
	f.Add((&Frame{Kind: 109, From: 1, Data: []byte("fp:bsp/4/42")}).AppendEncode(nil))
	f.Add((&Frame{Kind: 110, Aux: 1.75,
		Data: []byte("127.0.0.1:1,127.0.0.1:2")}).AppendEncode(nil))
	// Quantized gradient frames: int8 and f16 QuantVec blobs in Data.
	f.Add((&Frame{Kind: 1, From: 1, Clock: 5,
		Data: (&QuantVec{Codec: QuantInt8, Scale: 0.25, I8: []int8{-127, 0, 64}}).AppendEncode(nil)}).AppendEncode(nil))
	f.Add((&Frame{Kind: 8, From: 0, Clock: 2, Seg: 1,
		Data: (&QuantVec{Codec: QuantF16, H16: []uint16{0x3c00, 0xbc00}}).AppendEncode(nil)}).AppendEncode(nil))
	good := (&Frame{Kind: 3, Vec: []float32{1, 2}}).AppendEncode(nil)
	f.Add(good[:5])                          // truncated header
	f.Add(flipByte(good, 7))                 // bad CRC
	f.Add(patchLen(good, MaxFrameBytes+1))   // oversized length
	f.Add(patchLen(good, fixedPayLen+4<<20)) // length far past end
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 20
		var fr Frame
		var err error
		allocated := allocatedBy(func() { fr, err = DecodeFrame(data, limit) })
		bound := uint64(allocSlack)
		if len(data) >= preludeLen && binary.LittleEndian.Uint16(data) == frameMagic {
			if declared := binary.LittleEndian.Uint32(data[2:]); declared <= limit {
				bound += uint64(declared)
			}
		}
		if allocated > bound {
			t.Fatalf("decoder allocated %d bytes for %d input bytes, bound %d", allocated, len(data), bound)
		}
		checkPosted(t, data, limit, fr, err)
		if err != nil {
			return
		}
		// Anything accepted must re-encode and decode to the same frame.
		enc := fr.AppendEncode(nil)
		again, err := DecodeFrame(enc, 0)
		if err != nil {
			t.Fatalf("accepted frame failed re-decode: %v", err)
		}
		if !framesEqual(fr, again) {
			t.Fatalf("re-encode changed frame: %+v vs %+v", fr, again)
		}
		checkDamage(t, enc)
	})
}

// checkPosted decodes data again with a destination posted for the frame its
// header names, and holds the outcome to the lent decode's, lent and
// lentErr: the same error — a CRC mismatch still one, never a frame — or the
// same bits, with the Vec in the destination; nothing written past the
// destination, damaged input or not; and a post one element too long left
// unclaimed and unwritten.
func checkPosted(t *testing.T, data []byte, limit int, lent Frame, lentErr error) {
	t.Helper()
	if len(data) < headerLen || binary.LittleEndian.Uint16(data) != frameMagic {
		return
	}
	le, p := binary.LittleEndian, data[preludeLen:]
	n := int(le.Uint32(p[26:]))
	if n == 0 || n > limit/4 {
		return
	}
	const guard, mark = 8, float32(-7.25)
	for _, post := range []int{n + 1, n} {
		buf := make([]float32, post+guard)
		for i := range buf {
			buf[i] = mark
		}
		var box postBox
		box.Post(&Frame{From: int32(le.Uint32(p[2:])), Kind: le.Uint16(p[0:]), Clock: int32(le.Uint32(p[6:])), Vec: buf[:post]})
		fr, err := readFrame(bytes.NewReader(data), limit, &box)
		for i, v := range buf[post:] {
			if v != mark {
				t.Fatalf("decode into a %d-element post wrote element %d past it", post, post+i)
			}
		}
		if post != n {
			if fr.posted || box.p.Load() == nil || slices.ContainsFunc(buf, func(v float32) bool { return v != mark }) {
				t.Fatalf("a %d-element post was used for a %d-element Vec", post, n)
			}
			continue
		}
		switch {
		case (err == nil) != (lentErr == nil):
			t.Fatalf("posted decode: %v; lent decode: %v", err, lentErr)
		case err != nil && fr.Vec != nil:
			t.Fatalf("posted decode failed (%v) and returned a Vec", err)
		case isCRCError(lentErr) && !isCRCError(err):
			t.Fatalf("posted decode of a CRC mismatch: %v", err)
		case err == nil && (!fr.posted || &fr.Vec[0] != &buf[0] || !framesEqual(fr, lent)):
			t.Fatalf("posted decode differs from the lent one: %+v vs %+v", fr, lent)
		}
	}
}
