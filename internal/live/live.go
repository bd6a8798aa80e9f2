// Package live is the wall-clock runtime: it runs the same distributed
// training algorithms the deterministic simulator runs, but as real
// communicating workers over xport endpoints (loopback or cross-machine
// TCP, or in-process channels). Where internal/core advances a virtual
// clock and delivers messages through simnet, live workers block on real
// sockets, suffer real scheduler jitter, and finish in real seconds.
//
// The determinism contract with the simulator (see docs/LIVE.md):
//
//   - Synchronous algorithms (BSP — with or without local aggregation — and
//     AR-SGD) produce final parameters bit-identical to a core.Run of the
//     same Config and seed. This works because both sides share the code of
//     the algorithms and under them — the worker loops themselves
//     (core.WorkerLoop, which a live worker enters as the core.Env of its
//     sockets), streams from core.DeriveStreams, replicas from
//     core.NewReplica, every AllReduce, gather and broadcast from
//     comm.Plan.Run, and the parameter server itself: ps.Shard, which folds a
//     BSP round in ascending sender rank whatever the arrival order.
//   - Asynchronous algorithms (ASP, SSP, EASGD/AdaComm, GoSGD, AD-PSGD) run
//     with real nondeterminism — arrival order at the PS, gossip
//     interleaving — and report the same metrics Summary shape as the
//     simulator. The PS ones feed that order into the simulator's own
//     ps.Shard, so with one worker (one possible order) they are
//     bit-identical too. AD-PSGD's two-thread loop is the one algorithm
//     still written here as well as in core.
//
// Entry points: RunLoopback (coordinator + N goroutine workers over
// loopback TCP, no orchestration needed), RunChan (in-process channel
// transport, no sockets), and RunCoordinator/RunWorker for real
// multi-process deployments.
package live

import (
	"errors"
	"fmt"
	"time"

	"disttrain/internal/cluster"
	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/nn"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// recvTimeout bounds every blocking receive in the live protocol loops: a
// hung or dead peer surfaces as an error instead of a silent stall. Large
// enough that CI-grade machines under -race never trip it in healthy runs.
const recvTimeout = 60 * time.Second

// ErrScheduledDeath is returned by RunWorker under WithExitOnDeath when the
// worker reaches a scheduled crash: the process state is already torn down
// and the caller should exit, leaving the restart to an external supervisor
// (RunWorkerRejoin).
var ErrScheduledDeath = errors.New("live: worker stopped at scheduled death (relaunch with RunWorkerRejoin)")

// Validate checks that cfg can run on the live path. It normalizes the
// config through core's Validate first, then rejects everything the live
// runtime does not support: cost-only mode (a wall-clock run of no real
// math measures nothing), the algorithms whose loops are not yet written over
// core.Env (D-PSGD, Hogwild), PS sharding (live hosts a single PS rank), the
// simulator-only optimizations (wait-free BP, DGC), AD-PSGD's overlays and
// no-bipartite ablation, elastic membership outside BSP/AR-SGD, and crash
// faults without elastic membership (faithful stall-and-rerun crash semantics
// are simulator-only). Local aggregation, GoSGD's overlays and AdaComm come
// with the shared worker loops; ASP's staleness damping is the shared
// ps.Shard's.
func Validate(cfg *core.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Real == nil {
		return fmt.Errorf("live: real-math mode required (cost-only runs are simulator-only)")
	}
	switch cfg.Algo {
	case core.BSP, core.ASP, core.SSP, core.EASGD, core.AdaComm, core.ARSGD, core.GoSGD, core.ADPSGD:
	default:
		return fmt.Errorf("live: algorithm %s is simulator-only", cfg.Algo)
	}
	if cfg.Sharding != core.ShardNone || cfg.Shards > 1 {
		return fmt.Errorf("live: PS sharding is not supported (single live PS rank)")
	}
	switch {
	case cfg.WaitFreeBP:
		return fmt.Errorf("live: wait-free BP is a simulator overlap model")
	case cfg.DGC != nil:
		return fmt.Errorf("live: DGC is not supported on the live path")
	case cfg.ADPSGDNoBipartite:
		return fmt.Errorf("live: the AD-PSGD no-bipartite ablation is simulator-only")
	case cfg.Overlay != "" && cfg.Algo == core.ADPSGD:
		return fmt.Errorf("live: AD-PSGD gossip overlays are simulator-only (GoSGD's run live)")
	}
	if cfg.Elastic {
		switch cfg.Algo {
		case core.BSP, core.ARSGD:
		default:
			return fmt.Errorf("live: elastic membership supports BSP and AR-SGD only (got %s)", cfg.Algo)
		}
	}
	if !cfg.Faults.Empty() {
		if cfg.Faults.HasKind(fault.Crash) && !cfg.Elastic {
			return fmt.Errorf("live: crash faults require Elastic on the live path (faithful stall-and-rerun crash semantics are simulator-only)")
		}
		if _, err := TranslateFaults(cfg.Faults, cfg.Seed, cfg.Cluster, cfg.Workers, 0); err != nil {
			return err
		}
	}
	return nil
}

// Options tunes the live runtime beyond the shared core.Config: the
// checkpoint cadence workers and the PS write their state with, the
// fault-projection slow unit, progress reporting, and the external-restart
// policy. Build one with the With* functional options accepted by every
// entry point.
type Options struct {
	ckpt        nn.Cadence
	slowUnit    time.Duration
	progress    func(rank, iter int, loss float64)
	exitOnDeath bool
	tracer      *trace.Tracer
	metrics     *Metrics
}

// Option mutates Options; pass any number to the Run* entry points.
type Option func(*Options)

// WithCheckpoints makes every worker (and the PS) write a training-state
// checkpoint into dir every `every` completed iterations. A worker killed
// by a crash schedule restores from its latest checkpoint when it rejoins.
func WithCheckpoints(dir string, every int) Option {
	return func(o *Options) { o.ckpt = nn.Cadence{Dir: dir, Every: every} }
}

// WithSlowUnit overrides the latency one slowdown unit (Factor-1) maps onto
// when projecting slow/degrade faults; 0 keeps xport.DefaultSlowUnit.
func WithSlowUnit(unit time.Duration) Option {
	return func(o *Options) { o.slowUnit = unit }
}

// WithProgress registers a per-iteration progress callback: fn is called
// after every completed worker iteration with the worker's rank, the
// iteration number, and the current training-loss EWMA. Workers run
// concurrently, so fn must be safe for concurrent use; it runs on the
// worker's goroutine and must not block. Only in-process entry points
// (RunLoopback, RunChan) can observe every worker; in a multi-process run
// each process reports its own ranks.
func WithProgress(fn func(rank, iter int, loss float64)) Option {
	return func(o *Options) { o.progress = fn }
}

// WithExitOnDeath makes a scheduled crash terminate the worker entry point
// with ErrScheduledDeath instead of restarting in-process: the process
// state is torn down abruptly (mesh and control connections closed
// mid-protocol, exactly what a killed process leaves behind) and the error
// surfaces to the caller, which is expected to exit. An external supervisor
// then relaunches the rank with RunWorkerRejoin — the multi-process
// crash/restart story, exercised end-to-end by the CI rejoin test.
func WithExitOnDeath() Option {
	return func(o *Options) { o.exitOnDeath = true }
}

// WithTracer records wall-clock spans for every in-process participant into
// tr: compute and communication phases per worker rank (pid 0, tid = rank),
// checkpoint saves/restores, the start barrier, and the coordinator's
// rendezvous/heartbeat/rejoin activity (pid 1). The tracer's WriteJSON emits
// the same Chrome trace format the simulator produces, so one viewer serves
// both time sources. Only in-process entry points (RunLoopback, RunChan)
// capture every participant; a multi-process run traces its own ranks.
func WithTracer(tr *trace.Tracer) Option {
	return func(o *Options) { o.tracer = tr }
}

// WithMetrics registers every in-process participant with m, the
// Prometheus-text collector served on GET /metrics: workers contribute mesh
// transport counters and iteration progress, the coordinator contributes the
// PS endpoint counters and death/rejoin/done accounting.
func WithMetrics(m *Metrics) Option {
	return func(o *Options) { o.metrics = m }
}

func buildOptions(opts []Option) *Options {
	o := &Options{}
	for _, fn := range opts {
		fn(o)
	}
	return o
}

// Result is what one live run produces, the wall-clock counterpart of
// core.Result.
type Result struct {
	Config    core.Config
	Transport string
	// WallSec is real seconds from the START barrier to the last DONE.
	WallSec float64
	// Throughput is samples/second of wall time (total completed
	// iterations x batch / WallSec) — directly comparable with the
	// simulator's virtual-time images/sec.
	Throughput float64
	// WorkerIters is each rank's completed iteration count.
	WorkerIters []int
	// WorkerParams is each rank's final parameter vector, captured when the
	// worker's training loop finished (asynchronous serve traffic arriving
	// after that point is not reflected).
	WorkerParams [][]float32
	// FinalTestAcc and FinalTrainLoss evaluate the final global model: the
	// PS parameters for centralized algorithms, the replica average for
	// decentralized ones.
	FinalTestAcc   float64
	FinalTrainLoss float64
	// Net aggregates transport counters over every TCP endpoint in the run
	// (zero for the channel transport, which keeps no counters).
	Net xport.Stats
	// Deaths, Rejoins, and Restores count chaos events: scheduled worker
	// deaths the coordinator observed, REJOIN handshakes it accepted, and
	// checkpoint restores rejoining workers performed.
	Deaths   int64
	Rejoins  int64
	Restores int64
}

// Summary projects the live result into the simulator's Summary shape so
// the same plotting/analysis tooling consumes both. VirtualSec carries the
// wall-clock makespan (a live run has no virtual time).
func (r *Result) Summary() core.Summary {
	iters := 0
	for _, n := range r.WorkerIters {
		iters += n
	}
	s := core.Summary{
		Algo:       string(r.Config.Algo) + "+" + r.Transport,
		Workers:    r.Config.Workers,
		Machines:   r.Config.Cluster.Machines,
		Model:      r.Config.Workload.Profile.Name,
		Iters:      r.Config.Iters,
		Seed:       r.Config.Seed,
		Elastic:    r.Config.Elastic,
		VirtualSec: r.WallSec,
		Throughput: r.Throughput,
		TotalBytes: r.Net.BytesSent,

		FinalTestAcc:   r.FinalTestAcc,
		FinalTrainLoss: r.FinalTrainLoss,
	}
	s.Faults.Crashes = int(r.Deaths)
	s.Faults.Restarts = int(r.Rejoins)
	return s
}

// TranslateFaults maps a simulator fault schedule onto the live transport:
// drop windows become connection-kill windows (the frame is rewritten on a
// redialed connection — live TCP loses no acknowledged bytes, so "drop"
// exercises reconnection rather than message loss), slow/degrade windows
// become injected send latency (one slowdown unit above factor 1 maps to
// slowUnit of delay per send; 0 keeps xport.DefaultSlowUnit), and partition
// windows sever and stall mesh sends that cross the machine cut. Event.At
// and Event.Duration are read as wall-clock seconds from the run's START
// barrier. Crash events are not projected here — they are handled by the
// chaos membership layer (worker death/restart), not the transport — so a
// crash-only schedule yields a nil plan.
func TranslateFaults(s *fault.Schedule, seed uint64, cl cluster.Config, workers int, slowUnit time.Duration) (*xport.FaultPlan, error) {
	if s.Empty() {
		return nil, nil
	}
	// An open-ended window (Duration <= 0) covers the rest of the run.
	const forever = time.Duration(1) << 62
	plan := &xport.FaultPlan{Seed: seed, SlowUnit: slowUnit}
	for i, e := range s.Events {
		from := time.Duration(e.At * float64(time.Second))
		to := forever
		if e.Duration > 0 {
			to = from + time.Duration(e.Duration*float64(time.Second))
		}
		switch e.Kind {
		case fault.Drop:
			plan.Kills = append(plan.Kills, xport.KillWindow{From: from, To: to, Prob: e.Prob})
		case fault.Slow, fault.Degrade:
			// Each unit of slowdown factor above 1 costs a fixed extra
			// latency per send; the live path has no virtual wire time to
			// scale, so the factor maps onto a concrete delay per the
			// plan's slow unit.
			f := e.Factor
			if f < 1 {
				f = 1
			}
			plan.Delays = append(plan.Delays, xport.DelayWindow{From: from, To: to, Factor: f})
		case fault.Partition:
			// The isolated side is the set of worker ranks hosted on the
			// event's machines; the PS rank (== workers) stays outside the
			// side, so a centralized algorithm sees the partitioned
			// workers stall rather than silently lose traffic — the
			// simulator's faithful-stall semantics.
			var side []int
			for w := 0; w < workers; w++ {
				m := cl.MachineOfWorker(w)
				for _, pm := range e.Machines {
					if m == pm {
						side = append(side, w)
						break
					}
				}
			}
			if len(side) == 0 {
				return nil, fmt.Errorf("live: fault event %d: partition isolates no workers", i)
			}
			plan.Partitions = append(plan.Partitions, xport.PartitionWindow{From: from, To: to, Side: side})
		case fault.Crash:
			// Projected by the chaos membership layer, not the transport.
		default:
			return nil, fmt.Errorf("live: fault event %d: %s has no live-transport projection", i, e.Kind)
		}
	}
	if len(plan.Kills) == 0 && len(plan.Delays) == 0 && len(plan.Partitions) == 0 {
		return nil, nil
	}
	return plan, nil
}
