package live

import (
	"fmt"
	"sync/atomic"

	"disttrain/internal/core"
	"disttrain/internal/grad"
	"disttrain/internal/trace"
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

// slice returns the payload restricted to elements [lo, hi). An int8 slice
// keeps the full-vector scale, so the chunk reconstructs to exactly the same
// floats as the corresponding slice of the round-tripped full vector.
func sliceQuantVec(qv xport.QuantVec, lo, hi int) xport.QuantVec {
	out := xport.QuantVec{Codec: qv.Codec, Scale: qv.Scale}
	switch qv.Codec {
	case xport.QuantInt8:
		out.I8 = qv.I8[lo:hi]
	case xport.QuantF16:
		out.H16 = qv.H16[lo:hi]
	}
	return out
}

// decodeGradPayload replaces a frame's codec payload with the reconstructed
// dense vector in Vec. The payload must match the configured codec and the
// expected element count — a mismatch is a protocol violation, not a crash.
// The decoded int8 codes are a view of f.Data, read here and dropped with it.
func decodeGradPayload(codec xport.QuantCodec, f *xport.Frame, wantLen int) error {
	qv, err := xport.DecodeQuantVec(f.Data)
	if err != nil {
		return fmt.Errorf("live: gradient frame from %d: %w", f.From, err)
	}
	if qv.Codec != codec {
		return fmt.Errorf("live: gradient frame from %d: codec %d, want %d", f.From, qv.Codec, codec)
	}
	if qv.Len() != wantLen {
		return fmt.Errorf("live: gradient frame from %d: %d elements, want %d", f.From, qv.Len(), wantLen)
	}
	f.Vec = dequantizeVec(qv)
	f.Data = nil
	return nil
}

// arQuant carries the codec context into an AllReduce: the caller's
// full-vector payload (sliced for leaf-contribution sends), the per-rank
// bytes-saved counter, and the span hook for quantize/dequantize tracing.
// A nil *arQuant means a dense run.
type arQuant struct {
	qv    xport.QuantVec
	codec xport.QuantCodec
	saved *atomic.Int64
	span  func(name, cat string) *trace.WallSpan
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

// arQuantize prepares the AllReduce codec context for one round: it
// round-trips agg in place (the simulator quantizes each worker's own
// contribution before it enters the collective) and returns the context the
// collective uses to ship leaf chunks in codec form. Dense runs return nil.
func (w *worker) arQuantize(agg []float32) *arQuant {
	if w.codec == 0 {
		return nil
	}
	sp := w.span("quantize", "quant")
	qv := quantizeVec(w.codec, agg, &w.enc)
	sp.End()
	return &arQuant{qv: qv, codec: w.codec, saved: &w.saved, span: w.span}
}
