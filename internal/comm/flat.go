package comm

import (
	"fmt"

	"disttrain/internal/cluster"
	"disttrain/internal/tensor"
	"disttrain/internal/topo"
)

// Link is the transport seam under the collectives: one group member's view
// of the wire for one collective call. The member's vector lives behind the
// Link; the algorithms in this file and topo.go decide only which element
// range moves to whom under which tag, and how an arriving chunk folds in.
// Members are addressed by their index in the group. Two implementations
// exist: the simulated network (simLink, behind Collective) and the live
// runtime's xport mailbox (internal/live).
type Link interface {
	// Send ships elements [lo, hi) of the caller's vector to member to under
	// tag seg. own hints that the range still holds only the caller's own
	// un-summed contribution, which a transport may ship in codec form.
	Send(to, seg, lo, hi int, own bool) error
	// Recv blocks for the chunk tagged seg, folds it into elements [lo, hi)
	// of the caller's vector, and gives the chunk's buffer back to the
	// transport.
	Recv(seg, lo, hi int, fold Fold) error
}

// Fold combines an arriving chunk into the same-length range dst of the
// receiver's vector.
type Fold func(dst, chunk []float32)

// Sum adds the chunk element-wise: the reduce step.
func Sum(dst, chunk []float32) { tensor.AxpyF32(1, chunk, dst) }

// Overwrite replaces dst with the chunk: the gather/broadcast step.
func Overwrite(dst, chunk []float32) { copy(dst, chunk) }

// Plan is a collective together with the static layout it runs over — what
// Resolve derives from a collective's name, the cluster and the world size.
type Plan struct {
	Op Op
	// Groups and TorusRows × TorusCols are CollectiveOpts' fields of the same
	// names: the machine groups of OpHierarchicalAllReduce and the grid of
	// OpTorusAllReduce.
	Groups               [][]int
	TorusRows, TorusCols int
}

// Resolve maps a collective's name (core.Config.Collective; "" is the ring)
// to its Plan for ranks 0..n-1 placed on c: the hierarchical groups are c's
// rank→machine layout, the torus grid is topo.TorusShape's.
func Resolve(name string, c cluster.Config, n int) (Plan, error) {
	switch name {
	case "", "ring":
		return Plan{Op: OpRingAllReduce}, nil
	case "tree":
		return Plan{Op: OpTreeAllReduce}, nil
	case "hierarchical":
		tp, err := topo.New(c, n)
		if err != nil {
			return Plan{}, err
		}
		return Plan{Op: OpHierarchicalAllReduce, Groups: tp.Groups}, nil
	case "butterfly":
		return Plan{Op: OpButterflyAllReduce}, nil
	case "torus":
		rows, cols, err := topo.TorusShape(n)
		if err != nil {
			return Plan{}, err
		}
		return Plan{Op: OpTorusAllReduce, TorusRows: rows, TorusCols: cols}, nil
	}
	return Plan{}, fmt.Errorf("comm: unknown collective %q (ring, tree, hierarchical, butterfly, torus)", name)
}

// Run runs the plan's collective for member self of an n-member group whose
// vectors hold vlen elements: the one entry to all seven, for the simulator
// (through Collective) and the live runtime alike. Every member calls it
// with the same plan, n and vlen. Chunk boundaries, tags and fold order are
// fixed below it, so two transports that deliver the same chunks leave the
// same bits in every vector.
func (pl Plan) Run(l Link, n, self, vlen int) error {
	switch pl.Op {
	case OpRingAllReduce:
		return ringAllReduce(l, n, self, vlen)
	case OpTreeAllReduce:
		return treeAllReduce(l, n, self, vlen)
	case OpGather:
		return gatherSum(l, n, self, vlen)
	case OpBroadcast:
		return broadcast(l, n, self, vlen)
	case OpHierarchicalAllReduce:
		return hierarchicalAllReduce(l, pl.Groups, self, vlen)
	case OpButterflyAllReduce:
		return butterflyAllReduce(l, n, self, vlen)
	case OpTorusAllReduce:
		return torusAllReduce(l, pl.TorusRows, pl.TorusCols, self, vlen)
	}
	return fmt.Errorf("comm: unknown op %d", pl.Op)
}

// ringAllReduce is reduce-scatter followed by all-gather around the ring.
// Chunk c covers elements [vlen·c/n, vlen·(c+1)/n). Reduce-scatter chunks
// travel under tag c and all-gather chunks under n+c: a transport whose
// links can reorder (TCP redials) must be able to tell the phases apart.
func ringAllReduce(l Link, n, self, vlen int) error {
	lo := func(c int) int { return vlen * c / n }
	hi := func(c int) int { return vlen * (c + 1) / n }
	right := (self + 1) % n

	// Reduce-scatter: after n-1 steps, participant i holds the full sum of
	// chunk (i+1) mod n. Only the first step's chunk is still the sender's
	// own contribution.
	for s := 0; s < n-1; s++ {
		c := ((self-s)%n + n) % n
		if err := l.Send(right, c, lo(c), hi(c), s == 0); err != nil {
			return err
		}
		c = ((self-s-1)%n + n) % n
		if err := l.Recv(c, lo(c), hi(c), Sum); err != nil {
			return err
		}
	}
	// All-gather: circulate the reduced chunks.
	for s := 0; s < n-1; s++ {
		c := ((self+1-s)%n + n) % n
		if err := l.Send(right, n+c, lo(c), hi(c), false); err != nil {
			return err
		}
		c = ((self-s)%n + n) % n
		if err := l.Recv(n+c, lo(c), hi(c), Overwrite); err != nil {
			return err
		}
	}
	return nil
}

// treeAllReduce is a binomial reduce-to-root plus broadcast. A reduce
// message carries its round's distance d as its tag, so a parent folds its
// children in round order — the float sum order — whichever arrives first;
// a rank receives exactly one broadcast message, tagged 0.
func treeAllReduce(l Link, n, self, vlen int) error {
	// Reduce: in round k (distance d = 2^k), ranks with self%2d == d send to
	// self-d and drop out; ranks with self%2d == 0 receive (if a partner
	// exists). A rank that sends before ever receiving is a leaf: its vector
	// is still its own contribution.
	leaf := true
	for d := 1; d < n; d *= 2 {
		if self%(2*d) == d {
			if err := l.Send(self-d, d, 0, vlen, leaf); err != nil {
				return err
			}
			break
		}
		if self%(2*d) == 0 && self+d < n {
			if err := l.Recv(d, 0, vlen, Sum); err != nil {
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
			if err := l.Send(self+d, 0, 0, vlen, false); err != nil {
				return err
			}
		case self%(2*d) == d:
			if err := l.Recv(0, 0, vlen, Overwrite); err != nil {
				return err
			}
		}
	}
	return nil
}

// gatherSum sums every member's vector into the leader's (member 0), folding
// members 1, 2, … in that order; member i sends under tag i and returns
// without waiting.
func gatherSum(l Link, n, self, vlen int) error {
	if self != 0 {
		return l.Send(0, self, 0, vlen, true)
	}
	for i := 1; i < n; i++ {
		if err := l.Recv(i, 0, vlen, Sum); err != nil {
			return err
		}
	}
	return nil
}

// broadcast ships the leader's vector to every member; members block for
// it.
func broadcast(l Link, n, self, vlen int) error {
	if self != 0 {
		return l.Recv(0, 0, vlen, Overwrite)
	}
	for i := 1; i < n; i++ {
		if err := l.Send(i, 0, 0, vlen, false); err != nil {
			return err
		}
	}
	return nil
}
