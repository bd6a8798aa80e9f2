// Package comm implements the collective operations the decentralized
// algorithms and local aggregation are built on, as blocking calls made
// from simulated processes: ring AllReduce (reduce-scatter + all-gather,
// the MPI/MPICH algorithm the paper uses for AR-SGD), a binomial-tree
// AllReduce, the machine-aware hierarchical, butterfly and torus
// AllReduces, and intra-machine gather/broadcast for BSP's local
// aggregation.
//
// Every collective works in two modes: with real payload vectors (accuracy
// experiments) and with nil payloads where only message sizes drive the
// simulation (cost-only scalability experiments).
//
// The simulator's entry point is Collective with a CollectiveOpts. Malformed
// opts and protocol violations (an unexpected message in a strict,
// stash-less collective) surface as errors from Collective, not as panics
// deep inside the ring.
//
// All seven collectives are written once against the two-call Link seam —
// the flat four (ring, tree, gather, broadcast) in flat.go, the
// topology-aware three (hierarchical, butterfly, torus) in topo.go — and
// entered through Plan.Run. The worker protocol (internal/core) drives them
// over a worker's own wire on both runtimes, the simulator's and the live
// one; Collective drives them straight over the simulated network for the
// standalone callers (the scaling study, the benchmark's ladder).
package comm

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/simnet"
)

// Op selects the collective operation.
type Op int

// The supported collectives.
const (
	// OpRingAllReduce is an in-place sum-AllReduce: reduce-scatter followed
	// by all-gather around a ring.
	OpRingAllReduce Op = iota
	// OpTreeAllReduce is a binomial reduce-to-root plus broadcast.
	OpTreeAllReduce
	// OpGather sums every member's vector into the group leader's
	// (Nodes[0]); members return immediately after sending.
	OpGather
	// OpBroadcast ships the leader's vector to every member; members block
	// for it.
	OpBroadcast
	// OpHierarchicalAllReduce is the machine-aware AllReduce: intra-machine
	// gather to a per-machine leader, a ring over the leaders, then an
	// intra-machine broadcast. Requires Groups (see internal/topo).
	OpHierarchicalAllReduce
	// OpButterflyAllReduce is recursive halving/doubling over a hypercube,
	// with pre/post folding for non-power-of-two worlds.
	OpButterflyAllReduce
	// OpTorusAllReduce is the 2D ring-of-rings: a ring AllReduce along each
	// grid row, then along each column. Requires TorusRows × TorusCols ==
	// len(Nodes).
	OpTorusAllReduce
)

// isAllReduce reports whether op reduces a full vector across all
// participants (and therefore needs payload/VirtualLen sizing).
func isAllReduce(op Op) bool {
	switch op {
	case OpRingAllReduce, OpTreeAllReduce, OpHierarchicalAllReduce,
		OpButterflyAllReduce, OpTorusAllReduce:
		return true
	}
	return false
}

// CollectiveOpts parameterizes one collective call. Every participant must
// invoke Collective with the same Op, Nodes, Kind and Clock; Self is the
// caller's index into Nodes.
type CollectiveOpts struct {
	Op  Op
	Net *simnet.Net
	// Nodes lists the participants' node IDs; Self indexes the caller.
	Nodes []int
	Self  int
	// Vec is the payload (mutated in place by the reducing ops); nil in
	// cost-only mode, where VirtualLen supplies the element count used for
	// chunk sizing.
	Vec        []float32
	VirtualLen int
	// Bytes is the wire size of the full vector.
	Bytes int64
	// Kind tags the messages on the simulated network.
	Kind int
	// Clock tags the round. With a Stash attached, receives are filtered on
	// (Kind, Clock) and messages from other rounds are buffered — required
	// when the participant set changes between rounds and a fast peer's
	// next-round traffic can overtake the current round. Without a Stash, a
	// mismatched message makes Collective return an error (the strict
	// discipline of fixed-membership collectives; Collective attaches a
	// call-local Stash itself to every op but the ring and the broadcast).
	Clock int
	Stash *[]simnet.Msg
	// Groups lists each machine's participant indices (indices into Nodes,
	// not node IDs), ascending within a group; the first index of each
	// group is its leader. Required by OpHierarchicalAllReduce; build it
	// with topo.New.
	Groups [][]int
	// TorusRows × TorusCols is the grid shape for OpTorusAllReduce
	// (row-major over Nodes); the product must equal len(Nodes). Build it
	// with topo.TorusShape.
	TorusRows, TorusCols int
}

// Collective runs the configured operation, blocking the calling process
// until its role completes. It returns the caller's resulting vector (the
// received vector for OpBroadcast members, Vec otherwise) and the wire
// seconds accumulated by this participant's receives — the "network" share
// of the collective for time-breakdown metrics.
//
// Malformed opts are rejected up front; a protocol violation mid-collective
// (a message that matches neither the expected round nor a stash) aborts
// with an error. On error the payload vector may be partially reduced.
func Collective(p *des.Proc, o CollectiveOpts) ([]float32, des.Time, error) {
	if err := o.validate(); err != nil {
		return o.Vec, 0, err
	}
	// Only the ring and the broadcast take every message from one sender in
	// the order it sent them. Everywhere else a later tag can arrive first —
	// several senders, or a peer already a phase ahead: park it in a
	// call-local stash when the caller keeps none.
	if o.Stash == nil && o.Op != OpRingAllReduce && o.Op != OpBroadcast {
		o.Stash = &[]simnet.Msg{}
	}
	l := simLink{p: p, o: &o, vlen: o.VirtualLen}
	if o.Vec != nil {
		l.vlen = len(o.Vec)
	}
	err := Plan{o.Op, o.Groups, o.TorusRows, o.TorusCols}.Run(&l, len(o.Nodes), o.Self, l.vlen)
	if o.Op == OpBroadcast && l.got != nil {
		return l.got, l.wire, err
	}
	return o.Vec, l.wire, err
}

// validate rejects opts that would corrupt or deadlock the collective:
// empty or inconsistent membership, a caller outside the group, and
// payload/size mismatches. Catching these here turns a crash deep in the
// ring into an error at the call site.
func (o *CollectiveOpts) validate() error {
	if o.Net == nil {
		return fmt.Errorf("comm: %v needs a network", o.Op)
	}
	if len(o.Nodes) == 0 {
		return fmt.Errorf("comm: %v with no participants", o.Op)
	}
	if o.Self < 0 || o.Self >= len(o.Nodes) {
		return fmt.Errorf("comm: self index %d outside group of %d", o.Self, len(o.Nodes))
	}
	if o.Bytes < 0 {
		return fmt.Errorf("comm: negative wire size %d", o.Bytes)
	}
	if isAllReduce(o.Op) {
		if o.Vec == nil && o.VirtualLen <= 0 {
			return fmt.Errorf("comm: %v in cost-only mode needs a positive VirtualLen", o.Op)
		}
		if o.Vec != nil && len(o.Vec) == 0 {
			return fmt.Errorf("comm: %v with an empty payload vector", o.Op)
		}
	}
	if o.Vec != nil && o.VirtualLen != 0 && o.VirtualLen != len(o.Vec) {
		return fmt.Errorf("comm: VirtualLen %d disagrees with payload length %d", o.VirtualLen, len(o.Vec))
	}
	switch o.Op {
	case OpHierarchicalAllReduce:
		if err := o.validateGroups(); err != nil {
			return err
		}
	case OpTorusAllReduce:
		if o.TorusRows < 2 || o.TorusCols < 2 {
			return fmt.Errorf("comm: %v needs a rectangular grid of at least 2×2, got %d×%d",
				o.Op, o.TorusRows, o.TorusCols)
		}
		if o.TorusRows*o.TorusCols != len(o.Nodes) {
			return fmt.Errorf("comm: %v grid %d×%d does not cover %d ranks",
				o.Op, o.TorusRows, o.TorusCols, len(o.Nodes))
		}
	}
	return nil
}

// validateGroups checks that Groups partitions 0..len(Nodes)-1.
func (o *CollectiveOpts) validateGroups() error {
	if len(o.Groups) == 0 {
		return fmt.Errorf("comm: %v needs a cluster layout (Groups); derive one with topo.New", o.Op)
	}
	seen := make([]bool, len(o.Nodes))
	total := 0
	for g, members := range o.Groups {
		if len(members) == 0 {
			return fmt.Errorf("comm: %v group %d is empty", o.Op, g)
		}
		for _, r := range members {
			if r < 0 || r >= len(o.Nodes) {
				return fmt.Errorf("comm: %v group %d member %d outside world of %d", o.Op, g, r, len(o.Nodes))
			}
			if seen[r] {
				return fmt.Errorf("comm: %v rank %d appears in two groups", o.Op, r)
			}
			seen[r] = true
			total++
		}
	}
	if total != len(o.Nodes) {
		return fmt.Errorf("comm: %v groups cover %d of %d ranks", o.Op, total, len(o.Nodes))
	}
	return nil
}

// String names the op for error messages.
func (op Op) String() string {
	switch op {
	case OpRingAllReduce:
		return "ring allreduce"
	case OpTreeAllReduce:
		return "tree allreduce"
	case OpGather:
		return "gather"
	case OpBroadcast:
		return "broadcast"
	case OpHierarchicalAllReduce:
		return "hierarchical allreduce"
	case OpButterflyAllReduce:
		return "butterfly allreduce"
	case OpTorusAllReduce:
		return "torus allreduce"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// chunk is what one of Collective's messages carries on the simulated
// network: the round, the tag and, with real payloads, the elements.
type chunk struct {
	clock, seg int
	vec        []float32
}

// recvMatch returns the next message tagged (Kind, Clock, wantSeg) and its
// chunk. With a stash attached, non-matching messages are buffered for later
// calls; without one, a mismatch — another tag, or a body that is no chunk
// of Collective's — is a protocol violation and errors.
func recvMatch(p *des.Proc, o *CollectiveOpts, wantSeg int) (simnet.Msg, *chunk, error) {
	inbox := o.Net.Node(o.Nodes[o.Self]).Inbox
	match := func(m *simnet.Msg) *chunk {
		if c, ok := m.Body.(*chunk); ok && m.Kind == o.Kind && c.clock == o.Clock && c.seg == wantSeg {
			return c
		}
		return nil
	}
	if o.Stash != nil {
		for i, m := range *o.Stash {
			if c := match(&m); c != nil {
				*o.Stash = append((*o.Stash)[:i], (*o.Stash)[i+1:]...)
				return m, c, nil
			}
		}
	}
	for {
		m := inbox.Recv(p)
		if c := match(&m); c != nil {
			return m, c, nil
		}
		if o.Stash != nil {
			*o.Stash = append(*o.Stash, m)
			continue
		}
		want := fmt.Sprintf("want kind %d clock %d seg %d", o.Kind, o.Clock, wantSeg)
		if c, ok := m.Body.(*chunk); ok {
			return m, nil, fmt.Errorf("comm: %v got kind %d clock %d seg %d, %s", o.Op, m.Kind, c.clock, c.seg, want)
		}
		return m, nil, fmt.Errorf("comm: %v got kind %d with a body of type %T, %s", o.Op, m.Kind, m.Body, want)
	}
}

// simLink is Collective's side of the Link seam: one call's view of the
// simulated network. It owns everything only the simulator models — the
// paper-scale wire size of each chunk, the wire seconds the
// receives accumulate, the defensive copy that isolates a payload in flight
// from the sender's next fold, and cost-only mode, where o.Vec is nil and
// messages carry sizes but no payload. The chunks it receives make its free
// list, which its sends draw from.
type simLink struct {
	p    *des.Proc
	o    *CollectiveOpts
	vlen int
	wire des.Time
	// got is the payload of the last receive (what an OpBroadcast member
	// returns).
	got  []float32
	free []*chunk
}

func (l *simLink) Send(to, seg, lo, hi int, own bool) error {
	o := l.o
	var c *chunk
	if n := len(l.free); n > 0 {
		c, l.free = l.free[n-1], l.free[:n-1]
	} else {
		c = new(chunk)
	}
	c.clock, c.seg, c.vec = o.Clock, seg, nil
	if o.Vec != nil {
		c.vec = append([]float32(nil), o.Vec[lo:hi]...)
	}
	m := simnet.Msg{From: o.Nodes[o.Self], To: o.Nodes[to], Kind: o.Kind, Bytes: o.Bytes, Body: c}
	if hi-lo != l.vlen {
		m.Bytes = o.Bytes * int64(hi-lo) / int64(l.vlen)
	}
	o.Net.Send(m)
	return nil
}

func (l *simLink) Recv(seg, lo, hi int, fold Fold) error {
	m, c, err := recvMatch(l.p, l.o, seg)
	if err != nil {
		return err
	}
	l.wire += m.WireSec
	l.got = c.vec
	if l.o.Vec != nil && c.vec != nil {
		fold(l.o.Vec[lo:hi], c.vec)
	}
	c.vec = nil
	l.free = append(l.free, c)
	return nil
}
