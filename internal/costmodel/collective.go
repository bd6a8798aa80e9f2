package costmodel

import (
	"fmt"
	"math"

	"disttrain/internal/cluster"
	"disttrain/internal/topo"
)

// First-order analytic predictions of AllReduce completion time on the
// simulated two-tier fabric. These mirror the store-and-forward simnet
// physics closely enough to sanity-check measured virtual times and to
// reason about scaling regimes without running the simulator:
//
//   - The flat ring is throughput-bound: each of the 2(n-1) steps moves one
//     1/n-chunk per rank, and only one hop per machine crosses the NIC, so
//     the per-hop latency hides behind NIC occupancy until the chunk gets
//     small (the latency-bound regime where hierarchical wins).
//   - The hierarchical collective is latency-exposed on its leaders ring
//     (every hop is inter-machine) and pays a serial gather/broadcast on
//     each machine's shared bus, but moves only 1/L-chunks between machines.
//
// Ring and hierarchical are calibrated against the simulator (see
// TestPredictionsMatchSimulator); butterfly, torus and tree are rougher
// envelopes, adequate for trend lines but not gated by tolerance tests.

// machinesUsed returns how many machines host at least one of n workers.
func machinesUsed(c cluster.Config, n int) int {
	m := (n + c.WorkersPerMachine - 1) / c.WorkersPerMachine
	if m > c.Machines {
		m = c.Machines
	}
	return m
}

// RingAllReduceSec predicts the ring AllReduce time for bytes over n
// workers packed onto c. Per step, every rank forwards a 1/n-chunk to its
// successor: each machine's NIC carries exactly one inter-machine hop, the
// shared bus carries the machine's g-1 intra hops, and the dependency chain
// advances at latency plus the average hop occupancy.
func RingAllReduceSec(c cluster.Config, n int, bytes int64) float64 {
	if n < 2 {
		return 0
	}
	chunk := float64(bytes) / float64(n)
	m := machinesUsed(c, n)
	interOcc := chunk / c.InterBytesPerSec
	intraOcc := chunk / c.IntraBytesPerSec
	var bottleneck float64
	if m > 1 {
		g := float64(n) / float64(m)
		bottleneck = math.Max(interOcc, (g-1)*intraOcc)
	} else {
		// Single machine: all n hops share one bus.
		bottleneck = float64(n) * intraOcc
	}
	avgHop := (float64(m)*interOcc + float64(n-m)*intraOcc) / float64(n)
	step := math.Max(bottleneck, c.LatencySec+avgHop)
	return 2 * float64(n-1) * step
}

// HierarchicalAllReduceSec predicts the three-phase hierarchical AllReduce:
// serial member→leader gathers on each machine's shared bus, a ring of L
// leaders over 1/L-chunks in which every hop crosses the NIC and therefore
// pays full latency, and the mirrored broadcast back to members.
func HierarchicalAllReduceSec(c cluster.Config, n int, bytes int64) float64 {
	if n < 2 {
		return 0
	}
	m := machinesUsed(c, n)
	g := (n + m - 1) / m // largest group drives the serial bus phases
	b := float64(bytes)
	local := 2*float64(g-1)*b/c.IntraBytesPerSec + 2*c.LatencySec
	if m < 2 {
		return local
	}
	chunk := b / float64(m)
	leaders := 2 * float64(m-1) * (chunk/c.InterBytesPerSec + c.LatencySec)
	return local + leaders
}

// ButterflyAllReduceSec gives a rough envelope for recursive
// halving/doubling: log2(p2) exchange rounds each way with geometrically
// shrinking payloads, every round generally crossing machines once the mask
// exceeds the group size, plus a full-size pre/post fold round for
// non-power-of-two worlds.
func ButterflyAllReduceSec(c cluster.Config, n int, bytes int64) float64 {
	if n < 2 {
		return 0
	}
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	bw := c.InterBytesPerSec
	if machinesUsed(c, n) < 2 {
		bw = c.IntraBytesPerSec
	}
	b := float64(bytes)
	rounds := math.Log2(float64(p2))
	t := 2 * (b/bw*(1-1/float64(p2)) + rounds*c.LatencySec)
	if n != p2 {
		t += 2 * (b/bw + c.LatencySec)
	}
	return t
}

// TorusAllReduceSec gives a rough envelope for the 2D ring-of-rings: a full
// ring AllReduce along each row followed by one along each column, both
// over the full payload.
func TorusAllReduceSec(c cluster.Config, rows, cols int, bytes int64) float64 {
	b := float64(bytes)
	bw := c.InterBytesPerSec
	if machinesUsed(c, rows*cols) < 2 {
		bw = c.IntraBytesPerSec
	}
	row := 2 * float64(cols-1) * (b/float64(cols)/bw + c.LatencySec)
	col := 2 * float64(rows-1) * (b/float64(rows)/bw + c.LatencySec)
	return row + col
}

// TreeAllReduceSec gives a rough envelope for the binomial tree
// reduce+broadcast: 2·ceil(log2 n) full-payload rounds.
func TreeAllReduceSec(c cluster.Config, n int, bytes int64) float64 {
	if n < 2 {
		return 0
	}
	bw := c.InterBytesPerSec
	if machinesUsed(c, n) < 2 {
		bw = c.IntraBytesPerSec
	}
	rounds := math.Ceil(math.Log2(float64(n)))
	return 2 * rounds * (float64(bytes)/bw + c.LatencySec)
}

// PredictAllReduceSec dispatches on the collective name used by
// core.Config.Collective; the torus grid is topo.TorusShape's.
func PredictAllReduceSec(collective string, c cluster.Config, n int, bytes int64) (float64, error) {
	switch collective {
	case "", "ring":
		return RingAllReduceSec(c, n, bytes), nil
	case "tree":
		return TreeAllReduceSec(c, n, bytes), nil
	case "hierarchical":
		return HierarchicalAllReduceSec(c, n, bytes), nil
	case "butterfly":
		return ButterflyAllReduceSec(c, n, bytes), nil
	case "torus":
		rows, cols, err := topo.TorusShape(n)
		if err != nil {
			return 0, err
		}
		return TorusAllReduceSec(c, rows, cols, bytes), nil
	default:
		return 0, fmt.Errorf("costmodel: unknown collective %q", collective)
	}
}
