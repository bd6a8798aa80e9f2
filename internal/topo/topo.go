// Package topo derives communication topology from the cluster layout:
// machine-aware rank groups for hierarchical collectives, rectangular grids
// for torus collectives, and sparse overlay graphs for gossip algorithms.
//
// Everything here is pure description — the topology says *who* talks to
// *whom*; the collectives in internal/comm and the partner selection in
// internal/core consume it to decide *when* and *how much*.
package topo

import (
	"fmt"

	"disttrain/internal/cluster"
)

// Topology is the machine-aware view of a world of ranks 0..Workers-1
// placed on a cluster. Ranks are packed onto machines exactly as
// cluster.Config.MachineOfWorker places them; the last machine may hold
// fewer ranks when Workers is not a multiple of WorkersPerMachine.
type Topology struct {
	// Workers is the world size.
	Workers int
	// Cluster is the underlying physical layout.
	Cluster cluster.Config
	// Groups[m] lists the ranks on machine m, ascending. Machines with no
	// ranks (beyond the last occupied one) are omitted, so len(Groups) is
	// the number of occupied machines.
	Groups [][]int
	// MachineOf[r] is the group index of rank r.
	MachineOf []int
}

// New builds the topology for ranks 0..workers-1 on c.
func New(c cluster.Config, workers int) (*Topology, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 || workers > c.Workers() {
		return nil, fmt.Errorf("topo: %d workers on a %d-slot cluster", workers, c.Workers())
	}
	// Packed placement (cluster.Config.MachineOfWorker) puts ranks
	// [m·k, (m+1)·k) on machine m, k workers per machine: the groups are
	// windows onto one slice of 0..workers-1, capped so that an append to
	// one cannot spill into the next. Every AR-SGD worker derives its own
	// topology, so a large world builds this once per rank.
	k := c.WorkersPerMachine
	t := &Topology{Workers: workers, Cluster: c, MachineOf: make([]int, workers),
		Groups: make([][]int, (workers-1)/k+1)}
	ranks := make([]int, workers)
	for r := range ranks {
		ranks[r], t.MachineOf[r] = r, r/k
	}
	for m := range t.Groups {
		hi := min((m+1)*k, workers)
		t.Groups[m] = ranks[m*k : hi : hi]
	}
	return t, nil
}

// Machines returns the number of occupied machines.
func (t *Topology) Machines() int { return len(t.Groups) }

// TorusShape factors n into the most-square rows×cols grid with
// 2 ≤ rows ≤ cols. It errors on worlds that only admit a degenerate 1×n
// grid (primes and n < 4), where a torus collapses to a flat ring and the
// caller should say so rather than silently run the wrong algorithm.
func TorusShape(n int) (rows, cols int, err error) {
	if n < 4 {
		return 0, 0, fmt.Errorf("topo: torus needs at least 4 ranks, got %d", n)
	}
	for r := isqrt(n); r >= 2; r-- {
		if n%r == 0 {
			return r, n / r, nil
		}
	}
	return 0, 0, fmt.Errorf("topo: torus needs a rectangular rank count, %d is prime", n)
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
