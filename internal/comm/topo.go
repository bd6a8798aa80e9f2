// Topology-aware collectives: hierarchical (machine-aware two-level),
// recursive halving/doubling (butterfly), and 2D-torus (ring-of-rings)
// AllReduce.
//
// All three are bit-identical in result to the flat ring AllReduce. Since
// float addition is not associative, a different message pattern would
// normally imply a different summation tree; instead, these collectives
// exploit the simulator's payload/wire decoupling. Messages carry the
// *original* per-rank contributions (simnet.Part) alongside the Bytes that
// model the topology's real reduced-value traffic, and once a rank holds
// the full contribution set it replays the ring's exact per-chunk fold
// (ringReference). Timing reflects the topology; arithmetic reflects the
// reference.
//
// Part sets are propagated by snapshot: a sender attaches its current set
// as a capacity-clamped slice (no copy; later appends reallocate), and
// receivers merge with a per-rank dedup, so the payload machinery stays
// O(world) in memory per rank rather than O(world²).
package comm

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/simnet"
	"disttrain/internal/tensor"
)

// Seg values for the multi-phase collectives encode phase<<16 | index so
// stash-based matching can tell the phases of one round apart.
const (
	phGather = 1 + iota
	phRing
	phBcast
	phPre
	phHalf
	phDouble
	phPost
	phRow
	phCol
)

func segID(phase, idx int) int { return phase<<16 | idx }

// ringReference folds the full contribution set in the flat ring's exact
// order: chunk c of the result is the left fold of ranks c, c+1, …,
// c+n−1 (cyclic), with the ring's chunk boundaries. Identical bits to what
// OpRingAllReduce leaves in every participant's vector.
func ringReference(vecs [][]float32, out []float32) {
	n := len(vecs)
	vlen := len(out)
	for c := 0; c < n; c++ {
		lo, hi := vlen*c/n, vlen*(c+1)/n
		if lo == hi {
			continue
		}
		copy(out[lo:hi], vecs[c][lo:hi])
		for k := 1; k < n; k++ {
			tensor.AxpyF32(1, vecs[(c+k)%n][lo:hi], out[lo:hi])
		}
	}
}

// contribSet tracks which ranks' contributions this participant has seen.
// vecs doubles as the dedup bitmap and the rank-ordered input to
// ringReference; parts is the arrival-ordered list shared (by snapshot)
// with peers.
type contribSet struct {
	vecs  [][]float32
	parts []simnet.Part
}

func newContribSet(n int) *contribSet { return &contribSet{vecs: make([][]float32, n)} }

func (s *contribSet) add(rank int, vec []float32) {
	if s.vecs[rank] != nil {
		return
	}
	s.vecs[rank] = vec
	s.parts = append(s.parts, simnet.Part{Rank: rank, Vec: vec})
}

func (s *contribSet) merge(parts []simnet.Part) {
	for _, pt := range parts {
		s.add(pt.Rank, pt.Vec)
	}
}

// snapshot shares the current part list without copying; the capacity
// clamp forces any later append to reallocate, so receivers see a stable
// slice.
func (s *contribSet) snapshot() []simnet.Part { return s.parts[:len(s.parts):len(s.parts)] }

func (s *contribSet) full() bool { return len(s.parts) == len(s.vecs) }

// enter is the common preamble of the topology-aware collectives: attach a
// call-local stash if the caller supplied none (multi-partner phases can
// legitimately reorder within one round), and in payload mode snapshot the
// caller's original contribution before anything overwrites o.Vec.
func enter(o *CollectiveOpts) *contribSet {
	if o.Stash == nil {
		o.Stash = &[]simnet.Msg{}
	}
	if o.Vec == nil {
		return nil
	}
	set := newContribSet(len(o.Nodes))
	set.add(o.Self, append([]float32(nil), o.Vec...))
	return set
}

// finishReduce checks completeness and writes the reference reduction into
// o.Vec. No-op in cost-only mode.
func finishReduce(o *CollectiveOpts, set *contribSet) error {
	if set == nil {
		return nil
	}
	if !set.full() {
		return fmt.Errorf("comm: %v rank %d holds %d of %d contributions",
			o.Op, o.Self, len(set.parts), len(set.vecs))
	}
	ringReference(set.vecs, o.Vec)
	return nil
}

// subRing runs one ring phase over a subset of participants: a
// reduce-scatter pass that carries contribution snapshots (after which
// every member of the sub-ring holds the union of all members' sets,
// by chain propagation) and a timing-only all-gather pass. totalBytes is
// the full-vector wire size; each hop moves one of len(ranks) chunks.
func subRing(p *des.Proc, o *CollectiveOpts, ranks []int, phase int, set *contribSet, totalBytes int64) (des.Time, error) {
	L := len(ranks)
	if L == 1 {
		return 0, nil
	}
	pos := -1
	for i, r := range ranks {
		if r == o.Self {
			pos = i
		}
	}
	if pos < 0 {
		return 0, fmt.Errorf("comm: %v rank %d outside its own sub-ring %v", o.Op, o.Self, ranks)
	}
	chunkBytes := func(c int) int64 { return totalBytes*int64(c+1)/int64(L) - totalBytes*int64(c)/int64(L) }
	right := o.Nodes[ranks[(pos+1)%L]]
	var wire des.Time

	send := func(c int, carry bool) {
		var parts []simnet.Part
		if set != nil && carry {
			parts = set.snapshot()
		}
		o.Net.Send(simnet.Msg{From: o.Nodes[o.Self], To: right, Kind: o.Kind, Clock: o.Clock,
			Seg: segID(phase, c), Bytes: chunkBytes(c), Parts: parts})
	}

	// Reduce-scatter: snapshots accumulate around the ring; after L−1
	// receives each member has merged every other member's set.
	for s := 0; s < L-1; s++ {
		send(((pos-s)%L+L)%L, true)
		c := ((pos-s-1)%L + L) % L
		m, err := recvMatch(p, o, segID(phase, c))
		if err != nil {
			return wire, err
		}
		wire += m.WireSec
		if set != nil {
			set.merge(m.Parts)
		}
	}
	// All-gather: the reduced chunks circulate back; payload already
	// complete, so these messages are timing-only.
	for s := 0; s < L-1; s++ {
		send(((pos+1-s)%L+L)%L, false)
		c := ((pos-s)%L + L) % L
		m, err := recvMatch(p, o, segID(phase, c))
		if err != nil {
			return wire, err
		}
		wire += m.WireSec
	}
	return wire, nil
}

// hierarchicalAllReduce: members hand their contribution to a per-machine
// leader over the intra-machine bus, the leaders run a ring over the NIC
// fabric (chunked over the leader count), and the result fans back out
// intra-machine. Wire cost per member ≈ 2·B intra; per leader ≈
// (g−1)·B intra-in + 2·(L−1)·(B/L) inter + (g−1)·B intra-out.
func hierarchicalAllReduce(p *des.Proc, o *CollectiveOpts) (des.Time, error) {
	n := len(o.Nodes)
	if n == 1 {
		return 0, nil
	}
	set := enter(o)
	group := -1
	for g, members := range o.Groups {
		for _, r := range members {
			if r == o.Self {
				group = g
			}
		}
	}
	if group < 0 {
		return 0, fmt.Errorf("comm: %v rank %d missing from Groups", o.Op, o.Self)
	}
	my := o.Groups[group]
	leader := my[0]
	var wire des.Time

	if o.Self != leader {
		var parts []simnet.Part
		if set != nil {
			parts = set.snapshot()
		}
		o.Net.Send(simnet.Msg{From: o.Nodes[o.Self], To: o.Nodes[leader], Kind: o.Kind, Clock: o.Clock,
			Seg: segID(phGather, 0), Bytes: o.Bytes, Parts: parts})
		m, err := recvMatch(p, o, segID(phBcast, 0))
		if err != nil {
			return wire, err
		}
		wire += m.WireSec
		if o.Vec != nil {
			copy(o.Vec, m.Vec)
		}
		return wire, nil
	}

	for i := 0; i < len(my)-1; i++ {
		m, err := recvMatch(p, o, segID(phGather, 0))
		if err != nil {
			return wire, err
		}
		wire += m.WireSec
		if set != nil {
			set.merge(m.Parts)
		}
	}
	leaders := make([]int, len(o.Groups))
	for g, members := range o.Groups {
		leaders[g] = members[0]
	}
	w, err := subRing(p, o, leaders, phRing, set, o.Bytes)
	wire += w
	if err != nil {
		return wire, err
	}
	if err := finishReduce(o, set); err != nil {
		return wire, err
	}
	// One shared result copy for all members; receivers copy out, never
	// mutate.
	var result []float32
	if o.Vec != nil {
		result = append([]float32(nil), o.Vec...)
	}
	for _, r := range my[1:] {
		o.Net.Send(simnet.Msg{From: o.Nodes[o.Self], To: o.Nodes[r], Kind: o.Kind, Clock: o.Clock,
			Seg: segID(phBcast, 0), Bytes: o.Bytes, Vec: result})
	}
	return wire, nil
}

// butterflyAllReduce: recursive halving (reduce-scatter, message size
// B/2^(t+1) in round t) followed by recursive doubling (all-gather,
// mirrored sizes) over the largest power-of-two subset; the n−p2 leftover
// ranks fold into a partner before and after. Wire cost per active rank ≈
// 2·B·(p2−1)/p2 + the pre/post folds.
func butterflyAllReduce(p *des.Proc, o *CollectiveOpts) (des.Time, error) {
	n := len(o.Nodes)
	if n == 1 {
		return 0, nil
	}
	set := enter(o)
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	r := n - p2
	self := o.Self
	var wire des.Time

	send := func(to, seg int, bytes int64, parts []simnet.Part, vec []float32) {
		o.Net.Send(simnet.Msg{From: o.Nodes[self], To: o.Nodes[to], Kind: o.Kind, Clock: o.Clock,
			Seg: seg, Bytes: bytes, Parts: parts, Vec: vec})
	}

	// Pre-fold: the odd rank of each leftover pair hands its contribution
	// to its even partner and sits out until the post-fold.
	if self < 2*r && self%2 == 1 {
		var parts []simnet.Part
		if set != nil {
			parts = set.snapshot()
		}
		send(self-1, segID(phPre, 0), o.Bytes, parts, nil)
		m, err := recvMatch(p, o, segID(phPost, 0))
		if err != nil {
			return wire, err
		}
		wire += m.WireSec
		if o.Vec != nil {
			copy(o.Vec, m.Vec)
		}
		return wire, nil
	}
	if self < 2*r {
		m, err := recvMatch(p, o, segID(phPre, 0))
		if err != nil {
			return wire, err
		}
		wire += m.WireSec
		if set != nil {
			set.merge(m.Parts)
		}
	}
	// Active hypercube index: folded pairs collapse to one slot each.
	ai := self - r
	if self < 2*r {
		ai = self / 2
	}
	unai := func(a int) int {
		if a < r {
			return 2 * a
		}
		return a + r
	}
	// Halving: both partners exchange snapshots every round, so after
	// log2(p2) rounds each active rank's set covers the whole hypercube.
	t := 0
	for mask := p2 / 2; mask >= 1; mask /= 2 {
		partner := unai(ai ^ mask)
		var parts []simnet.Part
		if set != nil {
			parts = set.snapshot()
		}
		send(partner, segID(phHalf, t), o.Bytes/int64(uint(2)<<uint(t)), parts, nil)
		m, err := recvMatch(p, o, segID(phHalf, t))
		if err != nil {
			return wire, err
		}
		wire += m.WireSec
		if set != nil {
			set.merge(m.Parts)
		}
		t++
	}
	if err := finishReduce(o, set); err != nil {
		return wire, err
	}
	// Doubling: result already complete everywhere, timing-only.
	t = 0
	for mask := 1; mask < p2; mask *= 2 {
		partner := unai(ai ^ mask)
		send(partner, segID(phDouble, t), o.Bytes*int64(mask)/int64(p2), nil, nil)
		m, err := recvMatch(p, o, segID(phDouble, t))
		if err != nil {
			return wire, err
		}
		wire += m.WireSec
		t++
	}
	if self < 2*r {
		var result []float32
		if o.Vec != nil {
			result = append([]float32(nil), o.Vec...)
		}
		send(self+1, segID(phPost, 0), o.Bytes, nil, result)
	}
	return wire, nil
}

// torusAllReduce: a ring AllReduce along each row of the TorusRows ×
// TorusCols grid (chunked over the row length), then along each column.
// Row rings spread each row's contributions to all its members; column
// rings then union complete row sets, so every rank finishes with all n.
// Wire cost per rank ≈ 2·B·(cols−1)/cols + 2·B·(rows−1)/rows.
func torusAllReduce(p *des.Proc, o *CollectiveOpts) (des.Time, error) {
	if len(o.Nodes) == 1 {
		return 0, nil
	}
	set := enter(o)
	rows, cols := o.TorusRows, o.TorusCols
	row, col := o.Self/cols, o.Self%cols
	rowRanks := make([]int, cols)
	for i := range rowRanks {
		rowRanks[i] = row*cols + i
	}
	colRanks := make([]int, rows)
	for i := range colRanks {
		colRanks[i] = i*cols + col
	}
	var wire des.Time
	w, err := subRing(p, o, rowRanks, phRow, set, o.Bytes)
	wire += w
	if err != nil {
		return wire, err
	}
	w, err = subRing(p, o, colRanks, phCol, set, o.Bytes)
	wire += w
	if err != nil {
		return wire, err
	}
	return wire, finishReduce(o, set)
}
