package live

import (
	"fmt"

	"disttrain/internal/comm"
	"disttrain/internal/core"
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

// Send ships elements [lo, hi) of the vector. A leaf contribution (own, q
// non-nil) ships the sliced codec payload — which reconstructs to exactly the
// round-tripped values in vec — while partial sums and gathered results stay
// dense (they are off the codec's grid; re-encoding them would diverge from
// the simulator).
func (l *arLink) Send(to, seg, lo, hi int, own bool) error {
	f := &xport.Frame{Kind: l.kind, From: int32(l.nodes[l.self]),
		Clock: l.clock, Seg: int32(seg), Vec: l.vec[lo:hi]}
	if own && l.q != nil {
		qv := sliceQuantVec(l.q.qv, lo, hi)
		f.Vec, f.Data = nil, qv.AppendEncode(nil)
		l.q.saved.Add(int64(4*(hi-lo)) - int64(len(f.Data)))
	}
	return l.mb.send(l.nodes[to], f)
}

// Recv folds the chunk in, decoding a codec payload (a peer's leaf
// contribution) first.
func (l *arLink) Recv(seg, lo, hi int, fold comm.Fold) error {
	f, _, err := l.mb.recv(int32(l.kind), l.clock, int32(seg), core.Block)
	if err != nil {
		return err
	}
	if len(f.Data) > 0 {
		if l.q == nil {
			return fmt.Errorf("live: quantized allreduce chunk from %d in a dense run", f.From)
		}
		sp := l.q.span("dequantize", "quant")
		err := decodeGradPayload(l.q.codec, &f, hi-lo)
		sp.End()
		if err != nil {
			return err
		}
	}
	fold(l.vec[lo:hi], f.Vec)
	f.Release()
	return nil
}
