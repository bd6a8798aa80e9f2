package live

import (
	"fmt"

	"disttrain/internal/comm"
	"disttrain/internal/xport"
)

// The live runtime runs internal/comm's collectives — the code the
// simulator runs — over an xport mailbox: arLink is the live side of the
// comm.Link seam, and everything below is what only a real wire needs.
//
// Buffer ownership (docs/LIVE.md): Send never retains a frame after it
// returns, so chunks are sent as slices of the caller's vector in place; a
// received Vec is this rank's alone, and each one is released to xport's
// recycler right after the fold that consumes it.

// arChunk builds one AllReduce frame for elements [lo, hi) of vec. A leaf
// contribution (quant = true, q non-nil) ships the sliced codec payload —
// which reconstructs to exactly the round-tripped values in vec — while
// partial sums and gathered results stay dense (they are off the codec's
// grid; re-encoding them would diverge from the simulator).
func arChunk(q *arQuant, vec []float32, lo, hi int, quant bool, f *xport.Frame) {
	if quant && q != nil {
		qv := sliceQuantVec(q.qv, lo, hi)
		f.Data = qv.AppendEncode(nil)
		q.saved.Add(int64(4*(hi-lo)) - int64(len(f.Data)))
		return
	}
	f.Vec = vec[lo:hi]
}

// arRecvVec extracts the chunk payload from a received AllReduce frame,
// decoding a codec payload (a peer's leaf contribution) when present.
func arRecvVec(q *arQuant, f *xport.Frame, wantLen int) ([]float32, error) {
	if len(f.Data) == 0 {
		return f.Vec, nil
	}
	if q == nil {
		return nil, fmt.Errorf("live: quantized allreduce chunk from %d in a dense run", f.From)
	}
	sp := q.span("dequantize", "quant")
	defer sp.End()
	if err := decodeGradPayload(q.codec, f, wantLen); err != nil {
		return nil, err
	}
	return f.Vec, nil
}

// arLink is one rank's comm.Link for one collective call: kind is the frame
// kind the call travels under (an AllReduce, or local aggregation's gather or
// broadcast), nodes are the group's mesh ranks, self indexes the caller,
// clock tags the round. q non-nil ships own-contribution chunks — the
// caller's round-tripped gradient — in codec form.
type arLink struct {
	mb    *mailbox
	kind  uint16
	nodes []int
	self  int
	clock int32
	vec   []float32
	q     *arQuant
}

func (l *arLink) Send(to, seg, lo, hi int, own bool) error {
	f := &xport.Frame{Kind: l.kind, From: int32(l.nodes[l.self]),
		Clock: l.clock, Seg: int32(seg)}
	arChunk(l.q, l.vec, lo, hi, own, f)
	return l.mb.send(l.nodes[to], f)
}

func (l *arLink) Recv(seg, lo, hi int, fold comm.Fold) error {
	f, err := l.mb.recvMatch(l.kind, l.clock, int32(seg), recvTimeout)
	if err != nil {
		return err
	}
	chunk, err := arRecvVec(l.q, &f, hi-lo)
	if err != nil {
		return err
	}
	fold(l.vec[lo:hi], chunk)
	f.Release()
	return nil
}
