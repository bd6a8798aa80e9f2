package xport

import (
	"bytes"
	"reflect"
	"testing"
)

func TestQuantVecRoundTrip(t *testing.T) {
	cases := []QuantVec{
		{Codec: QuantInt8, Scale: 0.03125, I8: []int8{-127, -1, 0, 1, 127}},
		{Codec: QuantInt8, Scale: 0, I8: []int8{}},
		{Codec: QuantF16, H16: []uint16{0x3c00, 0x0001, 0xfbff, 0x7c00}},
		{Codec: QuantF16, H16: []uint16{}},
	}
	for _, q := range cases {
		buf := q.AppendEncode(nil)
		if len(buf) != q.EncodedLen() {
			t.Fatalf("EncodedLen %d, encoded %d", q.EncodedLen(), len(buf))
		}
		got, err := DecodeQuantVec(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Codec != q.Codec || got.Scale != q.Scale || got.Len() != q.Len() {
			t.Fatalf("header mismatch: %+v vs %+v", got, q)
		}
		if q.Codec == QuantInt8 && len(q.I8) > 0 && !reflect.DeepEqual(got.I8, q.I8) {
			t.Fatalf("int8 payload mismatch: %v vs %v", got.I8, q.I8)
		}
		if q.Codec == QuantF16 && len(q.H16) > 0 && !reflect.DeepEqual(got.H16, q.H16) {
			t.Fatalf("f16 payload mismatch: %v vs %v", got.H16, q.H16)
		}
		// A quantized payload rides inside a normal frame untouched.
		fr := Frame{Kind: 1, From: 2, Clock: 3, Data: buf}
		dec, err := DecodeFrame(fr.AppendEncode(nil), 0)
		if err != nil {
			t.Fatalf("frame decode: %v", err)
		}
		if _, err := DecodeQuantVec(dec.Data); err != nil {
			t.Fatalf("quant decode through frame: %v", err)
		}
	}
}

// TestDecodeQuantVecInt8ViewsData: the int8 decode is a view of the blob,
// not a copy — a write to the blob shows through, and decoding a payload of
// any size allocates nothing.
func TestDecodeQuantVecInt8ViewsData(t *testing.T) {
	buf := (&QuantVec{Codec: QuantInt8, Scale: 0.5, I8: make([]int8, 1<<16)}).AppendEncode(nil)
	q, err := DecodeQuantVec(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf[quantHeaderLen+5] = 0xfd
	if q.I8[5] != -3 {
		t.Fatalf("I8[5] = %d after writing 0xfd (-3) into the blob: the decode copied", q.I8[5])
	}
	if allocs := testing.AllocsPerRun(10, func() { q, err = DecodeQuantVec(buf) }); allocs != 0 {
		t.Fatalf("int8 decode allocates %v times", allocs)
	}
}

// TestInt8PayloadIsTheEncoding: codes written through Int8Payload's view,
// plus the scale, are byte for byte what AppendEncode produces from the same
// vector, and a buffer that holds the payload is reused, stale bytes and all.
func TestInt8PayloadIsTheEncoding(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, codes := range [][]int8{{}, {-127, 0, 64, 127}, make([]int8, 55), make([]int8, 200)} {
		for i := range buf[:cap(buf)] {
			buf[:cap(buf)][i] = 0xee
		}
		data, view := Int8Payload(buf, len(codes))
		copy(view, codes)
		PutInt8Scale(data, 0.25)
		want := (&QuantVec{Codec: QuantInt8, Scale: 0.25, I8: codes}).AppendEncode(nil)
		if !bytes.Equal(data, want) {
			t.Fatalf("%d codes: payload %x, want %x", len(codes), data, want)
		}
		if reused := &data[0] == &buf[:1][0]; reused != (len(want) <= cap(buf)) {
			t.Fatalf("%d codes: reused=%v with a buffer of %d", len(codes), reused, cap(buf))
		}
	}
}

func TestQuantVecRejectsMalformed(t *testing.T) {
	good := (&QuantVec{Codec: QuantInt8, Scale: 1, I8: []int8{1, 2, 3}}).AppendEncode(nil)
	cases := map[string][]byte{
		"empty":           {},
		"short header":    good[:4],
		"unknown codec":   append([]byte{9}, good[1:]...),
		"count too big":   func() []byte { b := append([]byte(nil), good...); b[1] = 200; return b }(),
		"count too small": func() []byte { b := append([]byte(nil), good...); b[1] = 1; return b }(),
		"f16 odd length": func() []byte {
			b := (&QuantVec{Codec: QuantF16, H16: []uint16{1, 2}}).AppendEncode(nil)
			return b[:len(b)-1]
		}(),
	}
	for name, buf := range cases {
		if _, err := DecodeQuantVec(buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeQuantVec feeds arbitrary bytes to the quantized-payload decoder:
// every input must return normally, and anything accepted must re-encode to
// an identical blob.
func FuzzDecodeQuantVec(f *testing.F) {
	f.Add((&QuantVec{Codec: QuantInt8, Scale: 0.5, I8: []int8{-3, 0, 3}}).AppendEncode(nil))
	f.Add((&QuantVec{Codec: QuantF16, H16: []uint16{0x3c00, 0x8000}}).AppendEncode(nil))
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQuantVec(data)
		if err != nil {
			return
		}
		again := q.AppendEncode(nil)
		if string(again) != string(data) {
			t.Fatalf("accepted blob does not re-encode identically: %x vs %x", again, data)
		}
	})
}
