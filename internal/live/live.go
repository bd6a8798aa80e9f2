// Package live is the wall-clock runtime: it runs the same distributed
// training algorithms the deterministic simulator runs, but as real
// communicating workers over xport endpoints (loopback or cross-machine
// TCP, or in-memory pipes). Where internal/core advances a virtual
// clock and delivers messages through simnet, live workers block on real
// sockets, suffer real scheduler jitter, and finish in real seconds.
//
// The determinism contract with the simulator (see docs/LIVE.md):
//
//   - Synchronous algorithms (BSP — with or without local aggregation —,
//     AR-SGD and D-PSGD) produce final parameters bit-identical to a core.Run
//     of the same Config and seed. This works because both sides share the
//     code of the algorithms and under them — the worker loops themselves
//     (core.WorkerLoop, which a live worker enters as the core.Env of its
//     sockets), streams from core.DeriveStreams, replicas from
//     core.NewReplica around the run's one core.InitModel draw, every
//     AllReduce, gather and broadcast from comm.Plan.Run, and the parameter
//     server itself: ps.Shard, which folds a BSP round in ascending sender
//     rank whatever the arrival order.
//   - Asynchronous algorithms (ASP, SSP, EASGD/AdaComm, GoSGD, AD-PSGD) run
//     with real nondeterminism — arrival order at the PS, gossip and
//     exchange interleaving — and report the same metrics Summary shape as
//     the simulator. The PS ones feed that order into the simulator's own
//     ps.Shard, so with one worker (one possible order) they are
//     bit-identical too; the decentralized ones draw their partners from the
//     simulator's streams, so they send the simulator's messages.
//
// Every algorithm is written once, in core; only Hogwild, a shared-memory
// scheme, has no live form.
//
// Entry points: RunLoopback (coordinator + N goroutine workers over
// loopback TCP, no orchestration needed), RunChan (the same run with the
// data plane over in-memory pipes), and RunCoordinator/RunWorker for real
// multi-process deployments.
package live

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/metrics"
	"disttrain/internal/nn"
	"disttrain/internal/ps"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// recvTimeout bounds every blocking receive in the live protocol loops: a
// hung or dead peer surfaces as an error instead of a silent stall. Large
// enough that CI-grade machines under -race never trip it in healthy runs.
const recvTimeout = 60 * time.Second

// pollWindow is how long a Poll gives the endpoint: the asynchronous drains
// (GoSGD gossip, SSP acks) poll between iterations.
const pollWindow = 200 * time.Microsecond

// Data-plane frame kinds: ps's and core's message kinds, so a packet capture
// of a live run reads against the simulator's message taxonomy and the
// server converts with a cast.
const (
	kindGrad        = uint16(ps.Grad)
	kindAllReduce   = uint16(core.KindAllReduce)
	kindLocalGather = uint16(core.KindLocalGather)
	kindLocalBcast  = uint16(core.KindLocalBcast)
)

// Control-plane frame kinds, used on the rendezvous connection and for the
// mesh-level termination handshake. They start at 100 to stay disjoint
// from the data plane.
const (
	kindHello uint16 = 100 + iota
	kindAssign
	kindAddr
	kindPeers
	kindReady
	kindStart
	kindDone
	kindBye
	// kindHeartbeat renews a worker's liveness lease with the coordinator.
	kindHeartbeat
	// kindRejoin is a restarted worker's re-admission request (From = its
	// original rank, Data = the config fingerprint).
	kindRejoin
	// kindRejoinOK re-admits a rejoining worker (Data = the peer address
	// list, Aux = seconds elapsed since the run's START barrier so the
	// worker can re-anchor its faults' clock).
	kindRejoinOK
	// kindResume announces a restarted incarnation on the mesh (From and Seg
	// = its rank, Clock = its resume iteration) before a peer redials it.
	kindResume
)

// ErrScheduledDeath is returned by RunWorker under WithExitOnDeath when the
// worker reaches a scheduled crash: the process state is already torn down
// and the caller should exit, leaving the restart to an external supervisor
// (RunWorkerRejoin).
var ErrScheduledDeath = errors.New("live: worker stopped at scheduled death (relaunch with RunWorkerRejoin)")

// Validate checks that cfg can run on the live path. It normalizes the
// config through core's Validate first, then rejects everything the live
// runtime does not support: cost-only mode (a wall-clock run of no real
// math measures nothing), Hogwild (a shared-memory scheme: there is no wire
// to run it over), PS sharding (live hosts a single PS rank), the
// simulator-only optimizations (wait-free BP, DGC), AD-PSGD's no-bipartite
// ablation (it deadlocks by design), elastic membership outside BSP/AR-SGD,
// crash faults without elastic membership (faithful stall-and-rerun crash
// semantics are simulator-only), and a partition that cuts off only machines
// no worker runs on. Every other algorithm, overlays and local
// aggregation included, comes with the shared worker loops; ASP's staleness
// damping is the shared ps.Shard's.
func Validate(cfg *core.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Real == nil {
		return fmt.Errorf("live: real-math mode required (cost-only runs are simulator-only)")
	}
	if cfg.Algo == core.Hogwild {
		return fmt.Errorf("live: algorithm hogwild is simulator-only (workers share one model in memory; there is no wire to run it over)")
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
		return fmt.Errorf("live: the AD-PSGD no-bipartite ablation is simulator-only (it deadlocks by design)")
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
		last := cfg.Cluster.MachineOfWorker(cfg.Workers - 1)
		for i, e := range cfg.Faults.Events {
			if e.Kind == fault.Partition && slices.Min(e.Machines) > last {
				return fmt.Errorf("live: fault event %d: partition isolates no workers", i)
			}
		}
	}
	return nil
}

// Options tunes the live runtime beyond the shared core.Config: the
// checkpoint cadence workers and the PS write their state with, progress
// reporting, the external-restart policy, span tracing and the metrics
// collector. Build one with the With* functional options accepted by every
// entry point.
type Options struct {
	ckpt        nn.Cadence
	progress    func(rank, iter int, loss float64)
	exitOnDeath bool
	tracer      *trace.Tracer
	metrics     *Metrics
	// chanNet is the run's pipe mesh (RunChan); nil: every rank listens on
	// TCP.
	chanNet *xport.ChanNet
	// init is the run's one initial draw, which every replica this process
	// builds, restarts included, and the PS start from.
	init *initialDraw
}

// Option mutates Options; pass any number to the Run* entry points.
type Option func(*Options)

// WithCheckpoints makes every worker (and the PS) write a training-state
// checkpoint into dir every `every` completed iterations. A worker killed
// by a crash schedule restores from its latest checkpoint when it rejoins.
func WithCheckpoints(dir string, every int) Option {
	return func(o *Options) { o.ckpt = nn.Cadence{Dir: dir, Every: every} }
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

// buildOptions is the Options of one run of cfg in a process that builds
// takers replicas and parameter servers if no rank restarts: opts applied,
// and the run's one initial draw.
func buildOptions(cfg *core.Config, opts []Option, takers int) *Options {
	o := &Options{init: newInitialDraw(cfg, takers)}
	for _, fn := range opts {
		fn(o)
	}
	return o
}

// listen opens mesh rank's endpoint of an n-rank mesh: its own of the run's
// pipe mesh, or a TCP listener on addr.
func (o *Options) listen(rank, n int, addr string) (*xport.TCPNet, error) {
	if o.chanNet != nil {
		return o.chanNet.Endpoint(rank).(*xport.TCPNet), nil
	}
	return xport.ListenTCP(rank, n, addr)
}

// initialDraw is a run's initial model, core.InitModel's parameters, drawn
// once per process at its first use. Every replica and PS the process builds
// takes the parameters it starts from here: a copy of the draw, except that
// the last of the takers the process expects adopts the draw itself, which
// no one reads after it. Under a crash schedule a rank may be rebuilt at any
// time, so every taker copies and the draw stays as drawn.
type initialDraw struct {
	weights func() []float32
	mu      sync.Mutex
	left    int            // takers still expected; 0 once the draw is adopted, or under a crash schedule
	copies  sync.WaitGroup // copies under way, which the adopter waits for
}

// newInitialDraw is cfg's initial draw for a process that builds takers
// replicas and parameter servers if no rank restarts.
func newInitialDraw(cfg *core.Config, takers int) *initialDraw {
	d := &initialDraw{weights: sync.OnceValue(func() []float32 { return core.InitModel(cfg).Weights() })}
	if newChaos(cfg) == nil {
		d.left = takers
	}
	return d
}

// take returns the parameters a new replica or PS starts from, in a store
// no other taker holds. Takers copy at the same time; the last adopts the
// draw only once every other has copied it.
func (d *initialDraw) take() []float32 {
	w := d.weights()
	d.mu.Lock()
	if d.left == 1 {
		d.left = 0
		d.mu.Unlock()
		d.copies.Wait()
		return w
	}
	d.left = max(d.left-1, 0)
	d.copies.Add(1)
	d.mu.Unlock()
	defer d.copies.Done()
	return slices.Clone(w)
}

// Result is what one live run produces, the wall-clock counterpart of
// core.Result.
type Result struct {
	Config    core.Config
	Transport string
	// WallSec is real seconds from the START barrier to the last DONE.
	WallSec float64
	// Throughput is samples/second of wall time: total completed iterations
	// x Real.Batch / WallSec. The simulator's virtual-time images/sec counts
	// Workload.Batch, the paper-scale batch its cost model times, so the two
	// are not comparable.
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
	// Net aggregates transport counters over every mesh endpoint in the
	// run, on either transport.
	Net xport.Stats
	// Breakdown is the ranks' mean time breakdown, in wall seconds; network
	// is the time spent inside Endpoint.Send.
	Breakdown metrics.Breakdown
	// Deaths, Rejoins, and Restores count chaos events: scheduled worker
	// deaths the coordinator observed, REJOIN handshakes it accepted, and
	// checkpoint restores rejoining workers performed.
	Deaths   int64
	Rejoins  int64
	Restores int64
}

// Summary projects the live result into the simulator's Summary shape so
// the same plotting/analysis tooling consumes both. The configuration fields
// are the simulator's own echo of the config (core.Config.Echo); InterGbps is
// therefore the configured cluster's bandwidth, not a measurement. VirtualSec
// carries the wall-clock makespan (a live run has no virtual time).
func (r *Result) Summary() core.Summary {
	s := r.Config.Echo()
	s.VirtualSec = r.WallSec
	s.Throughput = r.Throughput
	s.TotalBytes = r.Net.BytesSent
	s.BytesPerIterPerWorker = float64(r.Net.BytesSent) / float64(r.Config.Iters*r.Config.Workers)
	s.SetBreakdown(r.Breakdown)
	s.FinalTestAcc = r.FinalTestAcc
	s.FinalTrainLoss = r.FinalTrainLoss
	s.Faults.Crashes = int(r.Deaths)
	s.Faults.Restarts = int(r.Rejoins)
	return s
}
