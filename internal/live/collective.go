package live

import (
	"fmt"

	"disttrain/internal/tensor"
	"disttrain/internal/xport"
)

// The live collectives mirror internal/comm's algorithms over xport
// endpoints: identical chunk boundaries, identical reduction order,
// identical tree shape — which is what keeps an AR-SGD run bit-identical
// between the simulator and the live path. The one wire-level difference:
// the simulator's in-order links let reduce-scatter and all-gather share
// chunk tags, but TCP ordering is per-connection and redials can reorder,
// so the live ring tags all-gather chunks with Seg = n + c to keep the two
// phases unambiguous in the mailbox.
//
// Buffer ownership (docs/LIVE.md): Send never retains a frame after it
// returns, so the collectives send slices of the caller's vector in place;
// a received Vec is this rank's alone, and each one is released to xport's
// recycler right after the Axpy or copy that consumes it.

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

// ringAllReduce sums vec in place across the group: reduce-scatter then
// all-gather around the ring, comm.OpRingAllReduce's exact math. nodes are
// mesh ranks; self indexes the caller. q non-nil ships first-hop chunks —
// the caller's own round-tripped gradient — in codec form.
func ringAllReduce(mb *mailbox, nodes []int, self int, clock int32, vec []float32, q *arQuant) error {
	n := len(nodes)
	if n == 1 {
		return nil
	}
	l := len(vec)
	chunkLo := func(c int) int { return l * c / n }
	chunkHi := func(c int) int { return l * (c + 1) / n }
	right := nodes[(self+1)%n]
	send := func(c, tag int, quant bool) error {
		f := &xport.Frame{Kind: kindAllReduce, From: int32(nodes[self]),
			Clock: clock, Seg: int32(tag)}
		arChunk(q, vec, chunkLo(c), chunkHi(c), quant, f)
		return mb.ep.Send(right, f)
	}

	// Reduce-scatter: after n-1 steps, participant i holds the full sum of
	// chunk (i+1) mod n. Only the first step's chunk is the sender's own
	// un-summed contribution, so only it travels quantized.
	for s := 0; s < n-1; s++ {
		c := ((self-s)%n + n) % n
		if err := send(c, c, s == 0); err != nil {
			return err
		}
		c = ((self-s-1)%n + n) % n
		f, err := mb.recvMatch(kindAllReduce, clock, int32(c), true, recvTimeout)
		if err != nil {
			return err
		}
		chunk, err := arRecvVec(q, &f, chunkHi(c)-chunkLo(c))
		if err != nil {
			return err
		}
		tensor.AxpyF32(1, chunk, vec[chunkLo(c):chunkHi(c)])
		f.Release()
	}
	// All-gather: circulate the reduced chunks (tags offset by n).
	for s := 0; s < n-1; s++ {
		c := ((self+1-s)%n + n) % n
		if err := send(c, n+c, false); err != nil {
			return err
		}
		c = ((self-s)%n + n) % n
		f, err := mb.recvMatch(kindAllReduce, clock, int32(n+c), true, recvTimeout)
		if err != nil {
			return err
		}
		copy(vec[chunkLo(c):chunkHi(c)], f.Vec)
		f.Release()
	}
	return nil
}

// treeAllReduce sums vec across the group with a binomial reduce-to-root
// plus broadcast, comm.OpTreeAllReduce's exact shape. A reduce frame carries
// its round's distance d in Seg, so a parent folds its children in round
// order — the simulator's float sum order — whichever arrives first; a rank
// receives exactly one broadcast frame, tagged Seg 0. q non-nil ships leaf
// contributions — a rank's own round-tripped gradient, sent before it has
// folded anything in — in codec form; partial sums and the broadcast stay
// dense.
func treeAllReduce(mb *mailbox, nodes []int, self int, clock int32, vec []float32, q *arQuant) error {
	n := len(nodes)
	if n == 1 {
		return nil
	}
	send := func(to int, seg int32, quant bool) error {
		f := &xport.Frame{Kind: kindAllReduce, From: int32(nodes[self]),
			Clock: clock, Seg: seg}
		arChunk(q, vec, 0, len(vec), quant, f)
		return mb.ep.Send(nodes[to], f)
	}
	recv := func(seg int32, add bool) error {
		f, err := mb.recvMatch(kindAllReduce, clock, seg, true, recvTimeout)
		if err != nil {
			return err
		}
		payload, err := arRecvVec(q, &f, len(vec))
		if err != nil {
			return err
		}
		if add {
			tensor.AxpyF32(1, payload, vec)
		} else {
			copy(vec, payload)
		}
		f.Release()
		return nil
	}

	// Reduce: in round k (distance d = 2^k), ranks with self%2d == d send to
	// self-d and drop out; ranks with self%2d == 0 receive. A rank that
	// sends before ever receiving is a leaf: its vector is still its own
	// quantized contribution.
	leaf := true
	for d := 1; d < n; d *= 2 {
		if self%(2*d) == d {
			if err := send(self-d, int32(d), leaf); err != nil {
				return err
			}
			break
		}
		if self%(2*d) == 0 && self+d < n {
			if err := recv(int32(d), true); err != nil {
				return err
			}
			leaf = false
		}
	}
	// Broadcast back down the same tree, mirrored: largest distance first.
	top := 1
	for top < n {
		top *= 2
	}
	for d := top / 2; d >= 1; d /= 2 {
		switch {
		case self%(2*d) == 0 && self+d < n:
			if err := send(self+d, 0, false); err != nil {
				return err
			}
		case self%(2*d) == d:
			if err := recv(0, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// gather sums every member's vector into the leader's (nodes[0]); members
// return immediately after sending — comm.OpGather.
func gather(mb *mailbox, nodes []int, self int, clock int32, vec []float32) error {
	if len(nodes) == 1 {
		return nil
	}
	if self != 0 {
		return mb.ep.Send(nodes[0], &xport.Frame{Kind: kindGather, From: int32(nodes[self]),
			Clock: clock, Vec: vec})
	}
	for i := 0; i < len(nodes)-1; i++ {
		f, err := mb.recvMatch(kindGather, clock, 0, false, recvTimeout)
		if err != nil {
			return err
		}
		tensor.AxpyF32(1, f.Vec, vec)
		f.Release()
	}
	return nil
}

// broadcast ships the leader's vector to every member; members receive it
// into vec — comm.OpBroadcast.
func broadcast(mb *mailbox, nodes []int, self int, clock int32, vec []float32) error {
	if len(nodes) == 1 {
		return nil
	}
	if self == 0 {
		for i := 1; i < len(nodes); i++ {
			if err := mb.ep.Send(nodes[i], &xport.Frame{Kind: kindBcast, From: int32(nodes[0]),
				Clock: clock, Vec: vec}); err != nil {
				return err
			}
		}
		return nil
	}
	f, err := mb.recvMatch(kindBcast, clock, 0, false, recvTimeout)
	if err != nil {
		return err
	}
	copy(vec, f.Vec)
	f.Release()
	return nil
}
