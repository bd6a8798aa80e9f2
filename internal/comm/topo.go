// Topology-aware collectives: hierarchical (machine-aware two-level),
// recursive halving/doubling (butterfly), and 2D-torus (ring-of-rings)
// AllReduce, written against Link like the flat four. Hierarchical and torus
// are compositions of the flat collectives over sub-group views of the
// caller's Link; the butterfly is its own exchange pattern.
//
// Float addition is not associative, so each message pattern is its own
// summation tree: these collectives agree with the ring only to rounding.
// What they guarantee instead is what the ring guarantees — every member of
// one call ends with the same bits, and the simulator and the live runtime
// leave the same bits — with each op's fold order fixed here and restated as
// a reference in topo_test.go.
package comm

import "fmt"

// Tag bases of the multi-phase collectives: a phase's messages travel under
// base+tag, so stash-based matching can tell the phases of one round apart.
// The flat ring's tags run to 2n−1 and the butterfly's to n/2, which keeps
// phases disjoint for worlds up to 32768 ranks.
const (
	phGather = (1 + iota) << 16
	phRing
	phBcast
	phPre
	phHalf
	phDouble
	phPost
	phRow
	phCol
)

// group is a sub-group's view of a Link: member i of the view is member
// ranks[i] of the parent and tags move up by base. own passes the caller's
// own-contribution hint through; it is false where the view's vectors are
// already partial sums (the leaders' ring, the torus column ring), which
// must never ship as the rank's own codec payload.
type group struct {
	Link
	ranks []int
	base  int
	own   bool
}

func (g *group) Send(to, seg, lo, hi int, own bool) error {
	return g.Link.Send(g.ranks[to], g.base+seg, lo, hi, own && g.own)
}

func (g *group) Recv(seg, lo, hi int, fold Fold) error {
	return g.Link.Recv(g.base+seg, lo, hi, fold)
}

// hierarchicalAllReduce: each machine group gather-sums into its leader over
// the intra-machine bus (members folded in group order), the leaders run a
// ring over the NIC fabric (chunked over the leader count), and the result
// fans back out intra-machine. Wire cost per member ≈ 2·B intra; per leader
// ≈ (g−1)·B intra-in + 2·(L−1)·(B/L) inter + (g−1)·B intra-out.
func hierarchicalAllReduce(l Link, groups [][]int, self, vlen int) error {
	gi, pos := -1, 0
	for g, members := range groups {
		for i, r := range members {
			if r == self {
				gi, pos = g, i
			}
		}
	}
	if gi < 0 {
		return fmt.Errorf("comm: %v rank %d missing from Groups", OpHierarchicalAllReduce, self)
	}
	my := groups[gi]
	g := &group{l, my, phGather, true} // one view, re-aimed per phase
	if err := gatherSum(g, len(my), pos, vlen); err != nil {
		return err
	}
	if pos == 0 {
		leaders := make([]int, len(groups))
		for g, members := range groups {
			leaders[g] = members[0]
		}
		*g = group{l, leaders, phRing, false}
		if err := ringAllReduce(g, len(leaders), gi, vlen); err != nil {
			return err
		}
	}
	*g = group{l, my, phBcast, false}
	return broadcast(g, len(my), pos, vlen)
}

// torusAllReduce: a ring AllReduce along each row of the rows × cols grid
// (row-major over the members, chunked over the row length), then along
// each column over the row sums. Wire cost per rank ≈ 2·B·(cols−1)/cols +
// 2·B·(rows−1)/rows.
func torusAllReduce(l Link, rows, cols, self, vlen int) error {
	row, col := self/cols, self%cols
	rowRanks := make([]int, cols)
	for i := range rowRanks {
		rowRanks[i] = row*cols + i
	}
	g := &group{l, rowRanks, phRow, true}
	if err := ringAllReduce(g, cols, col, vlen); err != nil {
		return err
	}
	colRanks := make([]int, rows)
	for i := range colRanks {
		colRanks[i] = i*cols + col
	}
	*g = group{l, colRanks, phCol, false}
	return ringAllReduce(g, rows, row, vlen)
}

// butterflyAllReduce: recursive halving (reduce-scatter, half the live range
// per round) followed by recursive doubling (all-gather, mirrored) over the
// largest power-of-two subset p2; the odd rank of each of the n−p2 leftover
// pairs folds into its even neighbour before and copies the result after.
// Wire cost per active rank ≈ 2·B·(p2−1)/p2 + the pre/post folds.
func butterflyAllReduce(l Link, n, self, vlen int) error {
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	r := n - p2
	// Active hypercube index: folded pairs collapse to one slot each.
	ai := self - r
	if self < 2*r {
		if self%2 == 1 {
			if err := l.Send(self-1, phPre, 0, vlen, true); err != nil {
				return err
			}
			return l.Recv(phPost, 0, vlen, Overwrite)
		}
		if err := l.Recv(phPre, 0, vlen, Sum); err != nil {
			return err
		}
		ai = self / 2
	}
	// The partner's rank from its active index: the first r slots are the
	// folded pairs' even ranks.
	partner := func(mask int) int {
		a := ai ^ mask
		if a < r {
			return 2 * a
		}
		return a + r
	}
	// Halving: trade halves of the live range with the partner across mask
	// and Sum the partner's into the kept one. Only a first-round chunk of a
	// rank that took no pre-fold is still its own contribution.
	own := self >= 2*r
	for mask := p2 / 2; mask >= 1; mask /= 2 {
		keepLo, keepHi, giveLo, giveHi := halves(ai, p2, mask, vlen)
		if err := l.Send(partner(mask), phHalf+mask, giveLo, giveHi, own); err != nil {
			return err
		}
		if err := l.Recv(phHalf+mask, keepLo, keepHi, Sum); err != nil {
			return err
		}
		own = false
	}
	// Doubling: the same exchanges mirrored, trading the finished halves back.
	for mask := 1; mask < p2; mask *= 2 {
		keepLo, keepHi, giveLo, giveHi := halves(ai, p2, mask, vlen)
		if err := l.Send(partner(mask), phDouble+mask, keepLo, keepHi, false); err != nil {
			return err
		}
		if err := l.Recv(phDouble+mask, giveLo, giveHi, Overwrite); err != nil {
			return err
		}
	}
	if self < 2*r {
		return l.Send(self+1, phPost, 0, vlen, false)
	}
	return nil
}

// halves splits the live range of active index ai in the hypercube round at
// distance mask into the half it keeps and the half it gives its partner:
// the lower index keeps the lower half, and the kept half is the next
// round's live range, from [0, vlen) in the first (mask = p2/2).
func halves(ai, p2, mask, vlen int) (keepLo, keepHi, giveLo, giveHi int) {
	lo, hi := 0, vlen
	for m := p2 / 2; ; m /= 2 {
		mid := lo + (hi-lo)/2
		keepLo, keepHi, giveLo, giveHi = lo, mid, mid, hi
		if ai&m != 0 {
			keepLo, keepHi, giveLo, giveHi = mid, hi, lo, mid
		}
		if m == mask {
			return
		}
		lo, hi = keepLo, keepHi
	}
}
