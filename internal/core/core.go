// Package core implements the paper's subject matter: seven distributed
// data-parallel training algorithms — BSP, ASP, SSP, EASGD (centralized)
// and AR-SGD, GoSGD, AD-PSGD (decentralized) — in one framework, together
// with the three optimizations the paper evaluates (parameter sharding,
// wait-free backpropagation, deep gradient compression).
//
// Every algorithm runs on the deterministic discrete-event simulator in two
// engine modes selected by Config.Real:
//
//   - Real mode: workers hold actual neural-network replicas and exchange
//     real gradients/parameters, so model accuracy and convergence are
//     measured, while the virtual clock advances according to the
//     paper-scale cost model (TITAN V + ResNet-50/VGG-16 sized messages).
//     This reproduces the accuracy experiments (Tables II-IV, Fig. 1).
//
//   - Cost-only mode (Real == nil): no parameter math at all; only message
//     sizes and compute times are simulated. This reproduces the
//     performance experiments (Figs. 2-4) at full 24-worker scale in
//     milliseconds of host time.
package core

import (
	"fmt"

	"disttrain/internal/cluster"
	"disttrain/internal/comm"
	"disttrain/internal/costmodel"
	"disttrain/internal/data"
	"disttrain/internal/fault"
	"disttrain/internal/grad"
	"disttrain/internal/metrics"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/simnet"
	"disttrain/internal/topo"
	"disttrain/internal/trace"
)

// Algo names a distributed training algorithm.
type Algo string

// The seven algorithms of the paper's Table I.
const (
	BSP    Algo = "bsp"
	ASP    Algo = "asp"
	SSP    Algo = "ssp"
	EASGD  Algo = "easgd"
	ARSGD  Algo = "arsgd"
	GoSGD  Algo = "gosgd"
	ADPSGD Algo = "adpsgd"
)

// Algos lists all seven in the paper's order.
func Algos() []Algo { return []Algo{BSP, ASP, SSP, EASGD, ARSGD, GoSGD, ADPSGD} }

// Three of the paper's reviewed-but-not-selected algorithms, included as
// extensions (AdaComm is in adacomm.go).
const (
	// DPSGD is synchronous Decentralized Parallel SGD (Lian et al.,
	// NeurIPS'17 — the paper's reference [19]). Workers sit on a ring; every
	// iteration each worker exchanges parameters with both ring neighbors,
	// mixes x ← (x_self + x_left + x_right)/3, and applies its local
	// gradient. Synchronous like AR-SGD, but each round moves only 2M per
	// worker instead of a full AllReduce, at the cost of slower information
	// propagation (O(N) rounds around the ring).
	DPSGD Algo = "dpsgd"
	// Hogwild is lock-free shared-memory parallel SGD (Recht et al.,
	// NIPS'11 — the paper's reference [24], not selected because it is a
	// single-machine scheme). All workers update ONE shared parameter vector
	// with no synchronization at all: a worker computes a gradient from the
	// parameters as they are when its pass starts and applies it, stale, at
	// the pass's end, after the others' interleaved updates. It isolates pure
	// update staleness from every network effect: no message crosses a link.
	Hogwild Algo = "hogwild"
)

// Centralized reports whether the algorithm uses parameter servers.
func (a Algo) Centralized() bool {
	switch a {
	case BSP, ASP, SSP, EASGD, AdaComm:
		return true
	}
	return false
}

// Synchronous reports whether the algorithm synchronizes all workers every
// iteration.
func (a Algo) Synchronous() bool { return a == BSP || a == ARSGD }

// SendsGradients reports whether workers transmit gradients (vs parameters)
// — the precondition for wait-free BP and DGC in the paper.
func (a Algo) SendsGradients() bool {
	switch a {
	case BSP, ASP, SSP, ARSGD:
		return true
	}
	return false
}

// Sharding selects the PS partitioning scheme.
type Sharding string

// Sharding schemes: none (single shard), the paper's default layer-wise
// scheme, and the balanced scheme its Section VI-C calls for.
const (
	ShardNone      Sharding = "none"
	ShardLayerWise Sharding = "layerwise"
	ShardBalanced  Sharding = "balanced"
)

// RealConfig enables real-math mode.
type RealConfig struct {
	// Factory builds the run's models: called with a stream, it draws the
	// initial model (InitModel, once per run); with nil, it builds one
	// without a draw, which binds a copy of that draw (NewReplica) or
	// the vector it evaluates (EvalModel).
	Factory nn.ModelFactory
	// Train and Test are the dataset splits. Train is sharded per worker.
	Train, Test *data.Dataset
	// Batch is the per-worker mini-batch size for the real math (the
	// timing batch lives in Workload.Batch).
	Batch int
	// EvalEvery evaluates the global model every this many worker-0
	// iterations (0 = only at the end).
	EvalEvery int
	// EvalMax caps how many test samples evaluation uses (0 = all).
	EvalMax int
	// Augment, when non-nil, randomly augments each training batch
	// (shifts/flips; evaluation data is never augmented).
	Augment *data.Augment
}

// Config fully describes one experiment.
type Config struct {
	Algo    Algo
	Cluster cluster.Config
	// Workers may be less than Cluster.Workers() to leave machines
	// partially idle; 0 means use all.
	Workers int
	// Workload drives virtual compute times and wire sizes (paper scale).
	Workload costmodel.Workload
	// Real enables real gradient math; nil = cost-only.
	Real *RealConfig
	// Iters is the number of training iterations per worker.
	Iters int
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// PoolSize is the number of real OS threads (goroutines) used to run
	// replica forward/backward passes concurrently while their simulated
	// owners sleep out virtual compute time. 0 = inline serial execution
	// (the historical behavior). Results are bit-identical for every value:
	// the simulation only observes *that* a pass finished at its fixed join
	// point, never *when* it really ran.
	PoolSize int

	// Momentum and WeightDecay configure every SGD instance.
	Momentum    float32
	WeightDecay float32
	// LR is the learning-rate schedule (indexed by worker iteration).
	LR opt.Schedule

	// Staleness is SSP's threshold s.
	Staleness int
	// Tau is EASGD's communication period τ.
	Tau int
	// MovingRate is EASGD's elastic coefficient α; 0 = default 0.9/N.
	MovingRate float64
	// GossipP is GoSGD's per-iteration communication probability.
	GossipP float64

	// Shards is the number of PS shards; 0 = one per machine.
	Shards int
	// Sharding selects the partitioner (default ShardNone).
	Sharding Sharding
	// WaitFreeBP overlaps backward compute with gradient transfer.
	WaitFreeBP bool
	// DGC, when non-nil, enables deep gradient compression.
	DGC *grad.DGCConfig
	// Quantize8 enables 8-bit gradient quantization (an extension beyond
	// the paper's three optimizations). Layered on DGC it quantizes the
	// surviving sparse values; alone it quantizes the dense gradient.
	Quantize8 bool
	// QuantizeF16 enables half-precision (IEEE binary16) gradient
	// compression: 2× smaller transfers with per-element rounding instead
	// of Quantize8's shared scale. Mutually exclusive with Quantize8,
	// layerable on DGC like it.
	QuantizeF16 bool
	// LocalAgg enables BSP's intra-machine gradient aggregation.
	LocalAgg bool
	// Collective selects AR-SGD's AllReduce algorithm by name: "" or
	// "ring" (the default flat ring), "tree" (binomial reduce+broadcast —
	// faster for small models on high-latency fabrics, slower for large
	// ones), "hierarchical" (machine-aware two-level; the groups are
	// Cluster's rank→machine layout), "butterfly" (recursive
	// halving/doubling), "torus" (2D ring-of-rings; needs a non-prime
	// worker count). Each variant is its own summation tree: within a run
	// all replicas stay bit-identical to each other, and the simulator and
	// the live runtime agree bit for bit, but parameters differ from
	// another variant's in the last bits, as do simulated communication
	// times.
	Collective string
	// Overlay restricts AD-PSGD/GoSGD partner selection to a sparse
	// seed-deterministic peer graph instead of uniform-over-all-ranks:
	// "" (dense), "kregular" (random k-regular), "smallworld" (ring plus
	// random chords).
	Overlay string
	// OverlayDegree is the target neighbor count per rank: the exact
	// degree for "kregular", the average degree for "smallworld" (ring
	// edges plus Workers·(degree−2)/2 chords). 0 = default 4.
	OverlayDegree int
	// StalenessDamping makes ASP's parameter server scale each gradient's
	// learning rate by 1/(1+staleness), where staleness is how many global
	// updates occurred since the worker pulled — the staleness-aware async
	// SGD mitigation from the literature (extension).
	StalenessDamping bool
	// Tracer, when non-nil, records a Chrome-trace timeline of the run
	// (a span per worker step, message spans per machine); write it out
	// with Tracer.WriteJSON and open in chrome://tracing or Perfetto.
	Tracer *trace.Tracer
	// Progress, when non-nil, is called with every convergence sample the
	// run records (real mode only; the samples also accumulate in
	// Result.Metrics.Trace). Calls happen one at a time, in deterministic
	// order, while Run's caller waits — the callback must not block on the
	// run itself. A panic in a call made from inside the simulation (every
	// one but the final evaluation's) comes back as Run's error.
	// With RealConfig.EvalEvery = 1 this streams per-iteration metrics.
	Progress func(metrics.TracePoint)
	// Faults, when non-nil and non-empty, injects the scheduled faults
	// (crashes, slowdowns, link degradation, drops, partitions) into the
	// run. The whole schedule is seed-reproducible: identical Config +
	// schedule gives a bit-identical run. Not supported for the DPSGD,
	// AdaComm and Hogwild extensions, nor combined with LocalAgg when the
	// schedule contains crashes.
	Faults *fault.Schedule
	// Elastic makes membership-based barriers survive crashes: BSP shards
	// and AR-SGD rings exclude workers known dead for the round, and SSP's
	// staleness bound skips dead workers' frozen clocks. Without it the
	// synchronous algorithms stall at a dead worker's barrier — the
	// faithful behavior, and the paper-consistent contrast with the
	// decentralized algorithms, which route around death either way.
	Elastic bool
	// BarrierTimeoutSec bounds fault-mode receive waits (the backstop that
	// rides out dropped or partitioned messages); 0 = 5x the workload's
	// mean iteration time.
	BarrierTimeoutSec float64
	// ADPSGDNoBipartite disables AD-PSGD's bipartite partner graph
	// (ablation): workers initiate symmetric exchanges with arbitrary peers
	// and hold their reply until their own exchange completes — the naive
	// protocol whose wait-for cycles deadlock, motivating the paper's
	// bipartite design.
	ADPSGDNoBipartite bool
	// CaptureParams copies every replica's final parameter vector into
	// Result.WorkerParams (real mode only). The live runtime's bit-identity
	// tests compare these against a wall-clock TCP run's final parameters.
	CaptureParams bool
}

// topoCollective reports whether name is one of the topology-aware
// AllReduce variants (fixed membership: no faults, no elastic mode).
func topoCollective(name string) bool {
	switch name {
	case "hierarchical", "butterfly", "torus":
		return true
	}
	return false
}

// ShardMachine is the machine PS shard s is placed on: the shards go round
// the machines. The live runtime's one PS rank sits on shard 0's.
func (c *Config) ShardMachine(s int) int { return s % c.Cluster.Machines }

// Validate normalizes defaults and rejects inconsistent configurations.
func (c *Config) Validate() error {
	if err := c.Cluster.Validate(); err != nil {
		return err
	}
	if c.Workers == 0 {
		c.Workers = c.Cluster.Workers()
	}
	if c.Workers < 1 || c.Workers > c.Cluster.Workers() {
		return fmt.Errorf("core: %d workers on a %d-slot cluster", c.Workers, c.Cluster.Workers())
	}
	if c.Iters <= 0 {
		return fmt.Errorf("core: Iters = %d", c.Iters)
	}
	if c.Workload.Profile == nil {
		return fmt.Errorf("core: missing workload profile")
	}
	if c.PoolSize < 0 {
		return fmt.Errorf("core: PoolSize = %d", c.PoolSize)
	}
	switch c.Algo {
	case BSP, ASP, ARSGD:
	case SSP:
		if c.Staleness < 0 {
			return fmt.Errorf("core: SSP staleness %d", c.Staleness)
		}
	case EASGD:
		if c.Tau <= 0 {
			return fmt.Errorf("core: EASGD tau %d", c.Tau)
		}
		if c.MovingRate == 0 {
			c.MovingRate = 0.9 / float64(c.Workers)
		}
		if c.MovingRate <= 0 || c.MovingRate > 1 {
			return fmt.Errorf("core: EASGD moving rate %v", c.MovingRate)
		}
	case GoSGD:
		if c.GossipP <= 0 || c.GossipP > 1 {
			return fmt.Errorf("core: GoSGD p = %v", c.GossipP)
		}
		if c.Workers < 2 {
			return fmt.Errorf("core: GoSGD needs ≥ 2 workers")
		}
	case ADPSGD:
		if c.Workers < 2 {
			return fmt.Errorf("core: AD-PSGD needs ≥ 2 workers")
		}
	case DPSGD:
	case AdaComm:
		if c.Tau <= 0 {
			return fmt.Errorf("core: AdaComm initial tau %d", c.Tau)
		}
		if c.MovingRate == 0 {
			c.MovingRate = 0.9 / float64(c.Workers)
		}
	case Hogwild:
		if c.Cluster.Machines != 1 {
			return fmt.Errorf("core: Hogwild is a shared-memory single-machine scheme (got %d machines)", c.Cluster.Machines)
		}
	default:
		return fmt.Errorf("core: unknown algorithm %q", c.Algo)
	}
	if c.Sharding == "" {
		c.Sharding = ShardNone
	}
	if c.Sharding != ShardNone && !c.Algo.Centralized() {
		return fmt.Errorf("core: sharding applies only to centralized algorithms")
	}
	if c.Shards == 0 {
		c.Shards = c.Cluster.Machines
	}
	if c.Sharding == ShardNone {
		c.Shards = 1
	}
	if c.WaitFreeBP && !c.Algo.SendsGradients() {
		return fmt.Errorf("core: wait-free BP applies only to gradient-sending algorithms (%s sends parameters)", c.Algo)
	}
	if c.DGC != nil {
		if !c.Algo.SendsGradients() {
			return fmt.Errorf("core: DGC applies only to gradient-sending algorithms")
		}
		if c.Algo == ARSGD {
			return fmt.Errorf("core: DGC over AllReduce is not supported (sparse allreduce); use BSP/ASP/SSP")
		}
		if err := c.DGC.Validate(); err != nil {
			return err
		}
	}
	if c.Quantize8 && c.QuantizeF16 {
		return fmt.Errorf("core: Quantize8 and QuantizeF16 are mutually exclusive (pick one codec)")
	}
	if c.Quantize8 || c.QuantizeF16 {
		if !c.Algo.SendsGradients() {
			return fmt.Errorf("core: gradient quantization applies only to gradient-sending algorithms")
		}
	}
	if c.LocalAgg && c.Algo != BSP {
		return fmt.Errorf("core: local aggregation is a BSP optimization")
	}
	if c.ADPSGDNoBipartite && c.Algo != ADPSGD {
		return fmt.Errorf("core: ADPSGDNoBipartite applies only to AD-PSGD")
	}
	if c.Collective == "" {
		c.Collective = "ring"
	}
	if _, err := comm.Resolve(c.Collective, c.Cluster, c.Workers); err != nil {
		return err
	}
	if c.Collective != "ring" && c.Algo != ARSGD {
		return fmt.Errorf("core: collective selection applies only to AR-SGD")
	}
	if topoCollective(c.Collective) && c.Elastic {
		return fmt.Errorf("core: elastic membership is not supported with the %s collective (fixed topology)", c.Collective)
	}
	if c.Overlay != "" {
		if c.Algo != ADPSGD && c.Algo != GoSGD {
			return fmt.Errorf("core: gossip overlays apply only to AD-PSGD and GoSGD")
		}
		if c.OverlayDegree == 0 {
			c.OverlayDegree = 4
		}
		switch c.Overlay {
		case "kregular":
			if err := topo.RegularFeasible(c.Workers, c.OverlayDegree); err != nil {
				return err
			}
		case "smallworld":
			if c.OverlayDegree < 2 || c.OverlayDegree >= c.Workers {
				return fmt.Errorf("core: overlay degree %d outside [2, world size %d)", c.OverlayDegree, c.Workers)
			}
		default:
			return fmt.Errorf("core: unknown overlay %q (kregular, smallworld)", c.Overlay)
		}
	} else if c.OverlayDegree != 0 {
		return fmt.Errorf("core: OverlayDegree set without Overlay")
	}
	if c.StalenessDamping && c.Algo != ASP {
		return fmt.Errorf("core: StalenessDamping applies only to ASP")
	}
	if c.Real != nil {
		r := c.Real
		if r.Factory == nil || r.Train == nil || r.Test == nil {
			return fmt.Errorf("core: RealConfig requires Factory, Train, Test")
		}
		if r.Batch <= 0 {
			return fmt.Errorf("core: RealConfig.Batch = %d", r.Batch)
		}
	}
	if c.BarrierTimeoutSec < 0 {
		return fmt.Errorf("core: BarrierTimeoutSec = %v", c.BarrierTimeoutSec)
	}
	if c.BarrierTimeoutSec == 0 {
		c.BarrierTimeoutSec = 5 * c.Workload.MeanIterSec()
	}
	if !c.Faults.Empty() {
		switch c.Algo {
		case DPSGD, AdaComm, Hogwild:
			return fmt.Errorf("core: fault injection is not supported for %s", c.Algo)
		}
		if c.ADPSGDNoBipartite {
			return fmt.Errorf("core: fault injection is not supported for the AD-PSGD no-bipartite ablation")
		}
		if topoCollective(c.Collective) {
			return fmt.Errorf("core: fault injection is not supported with the %s collective (fixed topology)", c.Collective)
		}
		if err := c.Faults.Validate(c.Workers, c.Cluster.Machines); err != nil {
			return err
		}
		if c.LocalAgg && c.Faults.HasKind(fault.Crash) {
			return fmt.Errorf("core: local aggregation cannot be combined with crash faults (leader death is undefined)")
		}
	}
	return nil
}

// Result is everything one experiment produces.
type Result struct {
	Config Config
	// Metrics holds per-worker breakdowns and convergence traces.
	Metrics *metrics.Collector
	// Net holds traffic counters for the whole run.
	Net simnet.Stats
	// VirtualSec is the simulated makespan.
	VirtualSec float64
	// Throughput is samples/second of virtual time at the timing batch
	// size (Workload.Batch) — the paper's images/sec metric.
	Throughput float64
	// FinalTestAcc is the global model's test accuracy at the end (real
	// mode only; 0 in cost-only mode).
	FinalTestAcc float64
	// FinalTrainLoss is the final evaluated training loss (real mode).
	FinalTrainLoss float64
	// BytesPerIterPerWorker is total traffic / (Iters · Workers) — the
	// measured communication complexity for Table I verification.
	BytesPerIterPerWorker float64
	// ReplicaSpreadL2 is max over workers of ‖x_w − x̄‖/‖x̄‖ at the end of a
	// real-mode run — the "disparity of the model parameters among workers"
	// the paper identifies as the driver of asynchronous accuracy loss.
	// Zero for cost-only runs and for exactly synchronized replicas.
	ReplicaSpreadL2 float64
	// StuckProcs names the simulated processes still blocked when the
	// experiment drained. Server loops (PS shards, passive peers) are
	// normal here; stuck *worker/comm* processes indicate a protocol
	// deadlock (see the AD-PSGD bipartite ablation) — or, under fault
	// injection, workers stranded at a dead peer's barrier.
	StuckProcs []string
	// StalledWorkers counts workers that never completed their final
	// iteration (stranded at a barrier by a fault). When non-zero the run
	// effectively hung, so Throughput is reported as 0; per-worker partial
	// iteration counts remain in Metrics.
	StalledWorkers int
	// WorkerParams holds each replica's final parameter vector, captured
	// only when Config.CaptureParams is set in a real-mode run. Index is
	// worker rank.
	WorkerParams [][]float32
}
