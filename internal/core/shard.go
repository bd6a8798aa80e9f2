package core

import (
	"fmt"

	"disttrain/internal/costmodel"
	"disttrain/internal/des"
	"disttrain/internal/fault"
	"disttrain/internal/ps"
	"disttrain/internal/simnet"
)

// ShardRule maps a validated config onto the protocol PS shard s speaks. An
// elastic run's BSP barrier is as wide as the membership inj derives from the
// crash schedule, on both runtimes; Rule.Alive reads the simulator's virtual
// clock and is the simulator's to set.
func ShardRule(cfg *Config, s int, inj *fault.Injector) ps.Rule {
	r := ps.Rule{
		Workers:   cfg.Workers,
		LR:        cfg.LR,
		Iters:     cfg.Iters,
		Sparse:    cfg.DGC != nil,
		Damping:   cfg.StalenessDamping,
		Staleness: cfg.Staleness,
		Clock:     s == 0,
		Alpha:     float32(cfg.MovingRate),
	}
	if inj != nil && cfg.Elastic {
		r.Members = inj.AliveCount
	}
	switch cfg.Algo {
	case BSP:
		r.Proto = ps.BSP
		if cfg.LocalAgg {
			// One pre-summed gradient per machine that hosts workers.
			r.Senders = cfg.Cluster.MachineOfWorker(cfg.Workers-1) + 1
		}
	case ASP:
		r.Proto = ps.ASP
	case SSP:
		r.Proto = ps.SSP
	default: // EASGD and AdaComm, its adaptive-period variant
		r.Proto = ps.Elastic
	}
	return r
}

// spawnShards starts the PS side of every centralized algorithm: one process
// per shard, running ps.Serve over a shardWire. Elastic fault mode leaves
// dead workers out of SSP's staleness bound, so that a crash does not park
// every fast worker for the rest of the run, and gives up on messages lost to
// drop or partition faults; faithful mode keeps blocking receives,
// reproducing BSP's throughput collapse when a worker dies.
func (x *exp) spawnShards() {
	elastic := x.inj != nil && x.cfg.Elastic
	for s := range x.assign {
		x.eng.Spawn(fmt.Sprintf("%s-ps%d", x.cfg.Algo, s), func(p *des.Proc) {
			rule := ShardRule(x.cfg, s, x.inj)
			if elastic {
				rule.Alive = func(w int) bool { return !x.inj.DeadAt(w, p.Now()) }
			}
			sh := ps.NewShard(x.global, x.assign[s], rule)
			if err := ps.Serve(sh, &shardWire{x: x, p: p, s: s, elastic: elastic}); err != nil {
				panic(fmt.Sprintf("%s shard %d: %v", x.cfg.Algo, s, err))
			}
		})
	}
}

// shardWire is shard s's ps.Wire on the simulated network: virtual time, wire
// sizes and the fault-mode timeouts; its service never ends. An elastic
// bounded receive gives up BarrierTimeoutSec after the shard last moved (a
// reply, an expiry, an unbounded wait), so that the gradients held for later
// rounds do not keep the open round alive.
type shardWire struct {
	x       *exp
	p       *des.Proc
	s       int
	elastic bool     // a bounded receive gives up after the barrier timeout
	giveUp  des.Time // when the bounded wait in progress gives up; 0 = none
}

// Recv takes the next message and sleeps out its aggregation cost.
func (w *shardWire) Recv(bounded bool) (ps.Msg, bool, error) {
	inbox := w.x.net.Node(w.x.psNode[w.s]).Inbox
	var m simnet.Msg
	if w.elastic && bounded {
		if w.giveUp == 0 {
			w.giveUp = w.p.Now() + w.x.cfg.BarrierTimeoutSec
		}
		var ok bool
		if m, ok = inbox.RecvTimeout(w.p, w.giveUp-w.p.Now()); !ok {
			w.x.col.Faults.Timeouts++
			w.giveUp = 0
			return ps.Msg{}, false, nil
		}
	} else {
		w.giveUp = 0
		m = inbox.Recv(w.p)
	}
	if m.Kind != kindPull {
		psAggSleep(w.p, m.Bytes)
	}
	// The worker's request, in the shard's terms; worker w's node ID is w,
	// so From is the sender's rank.
	b := m.Body.(*Msg)
	req := ps.Msg{From: b.From, Kind: ps.Kind(b.Kind), Clock: b.Clock, Vec: b.Vec, Idx: b.Idx}
	w.x.msgs.Free(b)
	return req, true, nil
}

// Send puts the replies on the simulated network, in order, each a message
// from the run's free list. The call's parameter replies all carry one
// snapshot of the shard's ranges, a vector from the run's lender that
// each holds (see exp.vecs); an EASGD reply holds the pushed vector it carries.
func (w *shardWire) Send(out []ps.Reply) error {
	if len(out) > 0 {
		w.giveUp = 0
	}
	x, s := w.x, w.s
	var snap []float32
	for _, r := range out {
		m := x.msgs.New()
		m.From = x.psNode[s]
		var bytes int64
		switch r.Kind {
		case ps.Params:
			if snap == nil {
				snap = x.snapshot(s)
			}
			m.Kind, m.Seg, m.Vec, bytes = kindParams, s, snap, x.paramBytes(s)
		case ps.Ack:
			m.Kind, m.Clock, bytes = kindAck, r.Clock, 16
		case ps.PushReply:
			m.Kind, m.Seg, m.Vec, bytes = kindEASGDReply, s, r.Vec, x.shardBytes(s)
		default:
			panic(fmt.Sprintf("shard %d: a reply of kind %d", s, r.Kind))
		}
		x.vecs.Hold(m.Vec)
		x.net.Send(simnet.Msg{From: m.From, To: r.To, Kind: m.Kind, Bytes: bytes, Body: m})
	}
	return nil
}

// Release lets go of the hold the message that brought vec had on it: a
// vector from the run's lender goes back to it with its last hold.
func (w *shardWire) Release(vec []float32) { w.x.vecs.Release(vec) }

// psAggSleep models the shard-side processing cost of applying one message.
func psAggSleep(p *des.Proc, bytes int64) {
	p.Sleep(float64(bytes) / costmodel.AggRateBytesPerSec)
}

// paramBytes prices shard s's parameter reply. When DGC is active the wire
// size models a sparse refresh: the PS only ships the parameters touched
// since the worker's last sync — roughly the union of all workers' top-k
// updates over the pull period — because shipping the full dense model back
// would cancel most of what gradient compression saves. (The payload still
// carries the full vector in real mode; payload contents and wire size are
// decoupled throughout the simulator.)
func (x *exp) paramBytes(s int) int64 {
	bytes := x.shardBytes(s)
	if x.cfg.DGC != nil {
		// The warm-up ratio at the workers' mean compression iteration.
		sum := 0
		for _, r := range x.reps {
			sum += r.dgcIter
		}
		ratio := x.cfg.DGC.RatioAt(sum / len(x.reps))
		period := 1
		if x.cfg.Algo == SSP {
			period = x.cfg.Staleness + 1
		}
		factor := 2 * ratio * float64(x.cfg.Workers) * float64(period)
		if factor < 1 {
			bytes = max(8, int64(float64(bytes)*factor))
		}
	}
	return bytes
}

// snapshot takes the parameters shard s's replies carry, with real math: a
// full-length vector from the run's lender holding the shard's ranges of
// the global parameters — a receiver reads no other — or nil without.
func (x *exp) snapshot(s int) []float32 {
	if !x.global.MathOn() {
		return nil
	}
	vec := x.vecs.Get(x.vecLen)
	x.global.Snapshot(x.assign[s], vec)
	return vec
}
