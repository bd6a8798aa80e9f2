package live

import (
	"fmt"

	"disttrain/internal/core"
	"disttrain/internal/grad"
	"disttrain/internal/xport"
)

// Gradient quantization on the live path. Workers ship own contributions
// (gradient requests, AllReduce leaf chunks) as xport.QuantVec payloads
// carried in Frame.Data; receivers reconstruct the dense vector with the
// exact arithmetic grad's codecs use. The shared protocol has round-tripped
// the contribution through the codec first, on both runtimes, so every
// participant — including the sender — observes the same post-quantization
// values. That is what keeps a quantized live BSP or AR-SGD run bit-identical
// to the quantized simulator run.
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

// decodeGradPayload replaces a frame's codec payload with the dense vector
// grad's codecs reconstruct, in Vec. The payload must match the codec and,
// where wantLen is not negative, hold that many elements — a mismatch is a
// protocol violation, not a crash. The int8 codes are a view of f.Data, read
// here and handed back to the lender with it, so the next frame's payload
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
	// The dense vector comes from xport's lender, like a dense frame's Vec.
	dense := xport.NewVec(qv.Len())
	switch qv.Codec {
	case xport.QuantInt8:
		_ = grad.Dequantize8(grad.Quantized8{Scale: qv.Scale, Q: qv.I8}, dense) // lengths match by construction
	case xport.QuantF16:
		_ = grad.DequantizeF16(grad.QuantizedF16{H: qv.H16}, dense)
	}
	f.Release() // a codec frame's Vec is empty: this hands back the payload
	f.Vec = dense
	return nil
}

// encodeChunk fills f with the codec form of m's Vec, an own contribution
// the protocol already round-tripped through the codec (int8 with m.Codes,
// the codes that pass wrote, and the scale in m.Aux): a whole vector's int8
// codes ship where that pass wrote them, a chunk's are copied. f16 keeps no
// codes: a round-tripped value converts back to its own half. Partial sums and
// gathered results stay dense: they are off the codec's grid, and
// re-encoding them would diverge from the simulator.
func (w *worker) encodeChunk(m *core.Msg, f *xport.Frame) {
	sp := w.span("quantize", "quant")
	defer sp.End()
	switch w.codec {
	case xport.QuantInt8:
		f.Data = w.enc
		if len(m.Codes) == 0 || len(m.Codes) != len(w.codes) || &m.Codes[0] != &w.codes[0] {
			var codes []int8
			f.Data, codes = xport.Int8Payload(w.chunk, len(m.Codes))
			copy(codes, m.Codes)
			w.chunk = f.Data
		}
		xport.PutInt8Scale(f.Data, float32(m.Aux))
	case xport.QuantF16:
		qv := xport.QuantVec{Codec: xport.QuantF16, H16: grad.QuantizeF16(m.Vec).H}
		w.chunk = qv.AppendEncode(w.chunk[:0])
		f.Data = w.chunk
	}
	f.Vec = nil
	w.saved.Add(int64(4*len(m.Vec)) - int64(len(f.Data)))
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
