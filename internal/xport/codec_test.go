package xport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"disttrain/internal/rng"
)

// legacyEncode is the per-element encoder the codec had before it moved
// sections as bytes: every field appended through encoding/binary, the CRC
// taken over the finished payload. It is the wire format's independent
// statement, kept only so tests can hold the codec to it.
func legacyEncode(f *Frame) []byte {
	le := binary.LittleEndian
	dst := le.AppendUint16(nil, frameMagic)
	dst = le.AppendUint32(dst, uint32(fixedPayLen+4*len(f.Idx)+4*len(f.Vec)+len(f.Data)))
	dst = le.AppendUint32(dst, 0) // CRC backfilled below
	dst = le.AppendUint16(dst, f.Kind)
	dst = le.AppendUint32(dst, uint32(f.From))
	dst = le.AppendUint32(dst, uint32(f.Clock))
	dst = le.AppendUint32(dst, uint32(f.Seg))
	dst = le.AppendUint64(dst, math.Float64bits(f.Aux))
	dst = le.AppendUint32(dst, uint32(len(f.Idx)))
	dst = le.AppendUint32(dst, uint32(len(f.Vec)))
	dst = le.AppendUint32(dst, uint32(len(f.Data)))
	for _, v := range f.Idx {
		dst = le.AppendUint32(dst, uint32(v))
	}
	for _, v := range f.Vec {
		dst = le.AppendUint32(dst, math.Float32bits(v))
	}
	dst = append(dst, f.Data...)
	le.PutUint32(dst[6:10], crc32.ChecksumIEEE(dst[preludeLen:]))
	return dst
}

// TestWireGoldenBytes pins the wire encoding to bytes recorded from the
// encoder as it stood before the copy-free codec: a frame using all three
// variable sections, and a gradient frame carrying an int8 QuantVec blob.
func TestWireGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Frame
		hex  string
	}{
		{"idx+vec+data",
			Frame{Kind: 0x0102, From: 3, Clock: -7, Seg: 0x01020304, Aux: -2.5,
				Idx:  []int32{0, -1, 1 << 20},
				Vec:  []float32{1, -0.5, float32(math.Inf(1)), math.MaxFloat32},
				Data: []byte("wire")},
			"a1d74200000007f04e2a020103000000f9ffffff0403020100000000000004c0" +
				"03000000040000000400000000000000ffffffff000010000000803f000000bf" +
				"0000807fffff7f7f77697265"},
		{"quantvec",
			Frame{Kind: 1, From: 2, Clock: 9,
				Data: (&QuantVec{Codec: QuantInt8, Scale: 0.25, I8: []int8{-127, 0, 64, 127}}).AppendEncode(nil)},
			"a1d72f000000455b3b7c01000200000009000000000000000000000000000000" +
				"00000000000000000d00000001040000000000803e8100407f"},
	} {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", tc.name, err)
		}
		if got := tc.f.AppendEncode(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendEncode\n got %x\nwant %x", tc.name, got, want)
		}
		var w bytes.Buffer
		if err := WriteFrame(&w, &tc.f); err != nil {
			t.Fatalf("%s: WriteFrame: %v", tc.name, err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%s: WriteFrame\n got %x\nwant %x", tc.name, w.Bytes(), want)
		}
		got, err := DecodeFrame(want, 0)
		if err != nil {
			t.Fatalf("%s: decode golden bytes: %v", tc.name, err)
		}
		if !framesEqual(got, tc.f) {
			t.Errorf("%s: golden bytes decoded to %+v, want %+v", tc.name, got, tc.f)
		}
	}
}

// randomFrame draws a frame whose sections are independently empty, small,
// or (rarely) large enough for the lender.
func randomFrame(r *rng.RNG) Frame {
	size := func() int {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return minPooledBytes + r.Intn(minPooledBytes)
		}
		return 1 + r.Intn(40)
	}
	f := Frame{Kind: uint16(r.Uint64()), From: int32(r.Uint64()), Clock: int32(r.Uint64()),
		Seg: int32(r.Uint64()), Aux: math.Float64frombits(r.Uint64())}
	if n := size(); n > 0 {
		f.Idx = make([]int32, n)
		for i := range f.Idx {
			f.Idx[i] = int32(r.Uint64())
		}
	}
	if n := size(); n > 0 {
		f.Vec = make([]float32, n)
		for i := range f.Vec {
			f.Vec[i] = math.Float32frombits(uint32(r.Uint64())) // NaN payloads included
		}
	}
	if n := size(); n > 0 {
		f.Data = make([]byte, n)
		for i := range f.Data {
			f.Data[i] = byte(r.Uint64())
		}
	}
	return f
}

// TestLegacyEncodingDecodes holds encoder and decoder to the per-element
// reference on random frames: the bytes are the same, and the reference's
// bytes decode to the frame that went in.
func TestLegacyEncodingDecodes(t *testing.T) {
	r := rng.New(13)
	for i := 0; i < 300; i++ {
		f := randomFrame(r)
		old := legacyEncode(&f)
		if got := f.AppendEncode(nil); !bytes.Equal(got, old) {
			t.Fatalf("frame %d: encoding differs from the reference", i)
		}
		got, err := DecodeFrame(old, 0)
		if err != nil {
			t.Fatalf("frame %d: decode reference bytes: %v", i, err)
		}
		if !framesEqual(got, f) {
			t.Fatalf("frame %d: reference bytes decoded to a different frame", i)
		}
		got.Release()
	}
}

// TestBigEndianFallback drives the per-element path a big-endian host
// takes. On this (little-endian) machine the fallback byte-swaps where it
// should not, so the bytes are not wire-valid — but swapping is an
// involution: a frame must still survive encode → decode, with every
// section element reversed on the wire in between.
func TestBigEndianFallback(t *testing.T) {
	if !hostLE {
		t.Skip("host is big-endian: every other test already runs the fallback")
	}
	hostLE = false
	defer func() { hostLE = true }()
	f := Frame{Kind: 2, Idx: []int32{1, -2}, Vec: []float32{3.5, -4}, Data: []byte("d")}
	if got, want := wire32(f.Idx), []byte{0, 0, 0, 1, 0xff, 0xff, 0xff, 0xfe}; !bytes.Equal(got, want) {
		t.Fatalf("fallback wire bytes %x, want %x", got, want)
	}
	if f.Idx[0] != 1 || f.Idx[1] != -2 {
		t.Fatalf("wire32 modified its input: %v", f.Idx)
	}
	got, err := DecodeFrame(f.AppendEncode(nil), 0)
	if err != nil {
		t.Fatalf("decode through the fallback: %v", err)
	}
	if !framesEqual(got, f) {
		t.Fatalf("fallback round trip: got %+v want %+v", got, f)
	}
}

// isCRCError reports whether err is the decoder's checksum rejection.
func isCRCError(err error) bool {
	return err != nil && strings.Contains(err.Error(), "CRC mismatch")
}

// checkDamage is the decoder's contract on a damaged copy of a valid
// encoding: cut anywhere, it reports a truncated stream (io.EOF only when
// nothing arrived); with one bit flipped it reports an error — the CRC
// error whenever the flip lies in what the CRC covers and leaves the frame
// well-formed, that is, anywhere but the magic, the length and the counts.
func checkDamage(t *testing.T, enc []byte) {
	t.Helper()
	step := 1
	if len(enc) > 4096 {
		step = len(enc) / 512 // large frames: sample the payload
	}
	for cut := 0; cut < len(enc); cut += step {
		_, err := DecodeFrame(enc[:cut], 0)
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		if !errors.Is(err, want) {
			t.Fatalf("cut at %d of %d: got %v, want %v", cut, len(enc), err, want)
		}
	}
	const countsLo, countsHi = preludeLen + 22, headerLen
	for i := 0; i < len(enc); i += step {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 1 << (i % 8)
		_, err := DecodeFrame(bad, 0)
		if err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
		structural := i < 6 || (i >= countsLo && i < countsHi)
		if !structural && !isCRCError(err) {
			t.Fatalf("bit flip at byte %d: got %v, want a CRC error", i, err)
		}
	}
}

func TestDecodeDamage(t *testing.T) {
	for _, f := range sampleFrames() {
		checkDamage(t, f.AppendEncode(nil))
	}
	big := Frame{Kind: 8, Vec: make([]float32, 2*vecs.minPooled()), Data: []byte{1}}
	checkDamage(t, big.AppendEncode(nil))
}

// allocSlack is what an allocation bound forgives: the decoder's own small
// change (reader, header, error) and whatever the test binary's other
// goroutines allocate meanwhile. A length-driven allocation is megabytes.
const allocSlack = 64 << 10

// allocatedBy returns the bytes allocated while fn runs, as the heap counts
// them.
func allocatedBy(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestDecodeAllocationBounded: a header may claim any length, but the
// decoder allocates only after the claim passed the limit and the section
// counts add up to it — so never more than the bounded length (the lender
// keeps sections by exact length), however little data follows.
func TestDecodeAllocationBounded(t *testing.T) {
	const slack = allocSlack
	header := func(payLen, nIdx, nVec, nData uint32) []byte {
		h := (&Frame{}).AppendEncode(nil)
		binary.LittleEndian.PutUint32(h[2:], payLen)
		binary.LittleEndian.PutUint32(h[preludeLen+22:], nIdx)
		binary.LittleEndian.PutUint32(h[preludeLen+26:], nVec)
		binary.LittleEndian.PutUint32(h[preludeLen+30:], nData)
		return h
	}
	const limit = 1 << 20
	for _, tc := range []struct {
		name  string
		buf   []byte
		bound uint64
	}{
		{"length over the limit", header(limit+1, 0, (limit+1-fixedPayLen)/4, 0), slack},
		{"huge length", header(0xffffffff, 0, 0x3fffffff, 0), slack},
		{"counts beyond the length", header(fixedPayLen+64, 0x40000000, 0x40000000, 0), slack},
		{"counts overflowing 4n", header(fixedPayLen, 0xffffffff, 0, 0), slack},
		{"vec claims the limit, no body", header(limit, 0, (limit-fixedPayLen)/4, 0), limit + slack},
		{"data claims the limit, no body", header(limit, 0, 0, limit-fixedPayLen), limit + slack},
	} {
		var err error
		got := allocatedBy(func() { _, err = DecodeFrame(tc.buf, limit) })
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if got > tc.bound {
			t.Errorf("%s: decoder allocated %d bytes, bound %d", tc.name, got, tc.bound)
		}
	}
}

// TestRecycledBuffersNeverShared is the ownership rule under the race
// detector: ranks 1 and 2 stream large frames at rank 0, where two
// consumers each hold a frame across the next Recv before releasing it.
// Whatever the lender hands out in between, a held Vec or Data keeps the
// contents it arrived with and no two in-flight sections share memory.
func TestRecycledBuffersNeverShared(t *testing.T) {
	const senders, frames = 2, 40
	n, nData := vecs.minPooled()+123, datas.minPooled()+77
	eps := tcpMesh(t, senders+1)
	fill := func(from, clock int32) float32 { return float32(1000*from + clock) }
	fillData := func(from, clock int32) byte { return byte(16*from + clock) }

	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			vec, data := make([]float32, n), make([]byte, nData)
			for k := 0; k < frames; k++ {
				// Send does not retain vec or data: refill them for the next
				// frame.
				for i := range vec {
					vec[i] = fill(int32(s), int32(k))
				}
				for i := range data {
					data[i] = fillData(int32(s), int32(k))
				}
				if err := eps[s].Send(0, &Frame{Kind: 1, From: int32(s), Clock: int32(k), Vec: vec, Data: data}); err != nil {
					t.Errorf("send %d/%d: %v", s, k, err)
					return
				}
			}
		}(s)
	}

	var mu sync.Mutex
	inFlight := map[unsafe.Pointer]bool{}
	check := func(f *Frame) {
		want, wantData := fill(f.From, f.Clock), fillData(f.From, f.Clock)
		for i, v := range f.Vec {
			if v != want {
				t.Errorf("frame %d/%d element %d = %v, want %v", f.From, f.Clock, i, v, want)
				return
			}
		}
		for i, b := range f.Data {
			if b != wantData {
				t.Errorf("frame %d/%d data byte %d = %v, want %v", f.From, f.Clock, i, b, wantData)
				return
			}
		}
	}
	hold := func(f *Frame, on bool) {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range []unsafe.Pointer{unsafe.Pointer(&f.Vec[0]), unsafe.Pointer(&f.Data[0])} {
			if on && inFlight[p] {
				t.Errorf("frame %d/%d arrived in a buffer another in-flight frame holds", f.From, f.Clock)
			}
			inFlight[p] = on
		}
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev Frame
			for k := 0; k < senders*frames/2; k++ {
				cur, err := eps[0].Recv(10 * time.Second)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				hold(&cur, true)
				check(&cur)
				if prev.Vec != nil {
					check(&prev) // still intact after another frame landed
					hold(&prev, false)
					prev.Release()
				}
				prev = cur
			}
		}()
	}
	wg.Wait()
}
