package live

import (
	"fmt"

	"disttrain/internal/core"
	"disttrain/internal/grad"
	"disttrain/internal/xport"
)

// Gradient quantization on the live path. Workers compress gradient-bearing
// frames (PS exchanges, AllReduce leaf contributions) into xport.QuantVec
// payloads carried in Frame.Data; receivers reconstruct the dense vector
// with the exact arithmetic grad's codecs use. The sender always round-trips
// its own copy through the codec first, so every participant — including the
// sender — observes the same post-quantization values the simulator's
// QuantizeRoundTrip model produces. That is what keeps a quantized live BSP
// or AR-SGD run bit-identical to the quantized simulator run.
//
// AllReduce partial sums and all parameter frames stay dense: a partial sum
// is no longer on the codec's grid, so re-encoding it would diverge from the
// simulator (and from the other ranks).

// quantCodec maps the config's gradient codec onto the wire enum (0 = dense).
func quantCodec(cfg *core.Config) xport.QuantCodec {
	switch {
	case cfg.Quantize8:
		return xport.QuantInt8
	case cfg.QuantizeF16:
		return xport.QuantF16
	}
	return 0
}

// quantizeVec compresses v and applies the codec's round-trip loss to v in
// place, returning the wire payload. After the call, v holds exactly the
// values dequantizeVec reconstructs on the receiving side. int8 codes are
// written where a PS push ships them: in the payload bytes of *enc, the
// caller's storage from one call to the next (grown here when too small),
// which the call leaves holding the vector's complete wire form. The payload
// is valid until the caller quantizes again.
func quantizeVec(codec xport.QuantCodec, v []float32, enc *[]byte) xport.QuantVec {
	switch codec {
	case xport.QuantInt8:
		data, codes := xport.Int8Payload(*enc, len(v))
		q := grad.Quantize8RoundTripInto(v, codes)
		xport.PutInt8Scale(data, q.Scale)
		*enc = data
		return xport.QuantVec{Codec: codec, Scale: q.Scale, I8: q.Q}
	case xport.QuantF16:
		q := grad.QuantizeF16(v)
		_ = grad.DequantizeF16(q, v) // lengths match by construction
		return xport.QuantVec{Codec: codec, H16: q.H}
	}
	panic(fmt.Sprintf("live: quantizeVec with codec %d", codec))
}

// dequantizeVec reconstructs the dense vector a QuantVec carries with
// grad's own codecs. The vector comes from xport's recycler, like the Vec
// of a dense frame.
func dequantizeVec(qv xport.QuantVec) []float32 {
	out := xport.NewVec(qv.Len())
	switch qv.Codec {
	case xport.QuantInt8:
		_ = grad.Dequantize8(grad.Quantized8{Scale: qv.Scale, Q: qv.I8}, out) // lengths match by construction
	case xport.QuantF16:
		_ = grad.DequantizeF16(grad.QuantizedF16{H: qv.H16}, out)
	}
	return out
}

// decodeGradPayload replaces a frame's codec payload with the reconstructed
// dense vector in Vec. The payload must match the configured codec and, where
// wantLen is not negative, hold that many elements — a mismatch is a protocol
// violation, not a crash. The decoded int8 codes are a view of f.Data, read
// here and handed back to the recycler with it, so the next frame's payload
// lands in the same bytes.
func decodeGradPayload(codec xport.QuantCodec, f *xport.Frame, wantLen int) error {
	qv, err := xport.DecodeQuantVec(f.Data)
	if err != nil {
		return fmt.Errorf("live: gradient frame from %d: %w", f.From, err)
	}
	if qv.Codec != codec {
		return fmt.Errorf("live: gradient frame from %d: codec %d, want %d", f.From, qv.Codec, codec)
	}
	if wantLen >= 0 && qv.Len() != wantLen {
		return fmt.Errorf("live: gradient frame from %d: %d elements, want %d", f.From, qv.Len(), wantLen)
	}
	dense := dequantizeVec(qv)
	f.Release() // a codec frame's Vec is empty: this recycles the payload
	f.Vec = dense
	return nil
}

// encodeGrad fills f with the gradient payload for one PS exchange: dense
// runs carry the raw vector, quantized runs carry the codec payload in Data
// and round-trip g in place so the sender's local values are exactly what
// the PS reconstructs.
func (w *worker) encodeGrad(g []float32, f *xport.Frame) {
	if w.codec == 0 {
		f.Vec = g
		return
	}
	sp := w.span("quantize", "quant")
	// Send never retains a frame, so one payload buffer serves every step.
	qv := quantizeVec(w.codec, g, &w.enc)
	if w.codec != xport.QuantInt8 { // int8 is already in wire form
		w.enc = qv.AppendEncode(w.enc[:0])
	}
	f.Data = w.enc
	w.saved.Add(int64(4*len(g)) - int64(len(f.Data)))
	sp.End()
}

// encodeChunk fills f with the codec form of chunk, a slice of an own
// AllReduce contribution the collective already round-tripped through the
// codec (int8 with scale), so its codes come back exactly from its values
// (grad.Recode8). Partial sums and gathered results stay dense: they are off
// the codec's grid, and re-encoding them would diverge from the simulator.
func (w *worker) encodeChunk(chunk []float32, scale float32, f *xport.Frame) {
	sp := w.span("quantize", "quant")
	defer sp.End()
	switch w.codec {
	case xport.QuantInt8:
		data, codes := xport.Int8Payload(w.enc, len(chunk))
		grad.Recode8(codes, chunk, scale)
		xport.PutInt8Scale(data, scale)
		w.enc = data
	case xport.QuantF16:
		qv := xport.QuantVec{Codec: xport.QuantF16, H16: grad.QuantizeF16(chunk).H}
		w.enc = qv.AppendEncode(w.enc[:0])
	}
	f.Vec, f.Data = nil, w.enc
	w.saved.Add(int64(4*len(chunk)) - int64(len(f.Data)))
}

// decodeChunk reconstructs the dense Vec of a chunk that came in codec form;
// the collective checks its length against the range it folds into.
func (w *worker) decodeChunk(f *xport.Frame) error {
	if w.codec == 0 {
		return fmt.Errorf("live: codec-form frame from %d in a dense run", f.From)
	}
	sp := w.span("dequantize", "quant")
	defer sp.End()
	return decodeGradPayload(w.codec, f, -1)
}
