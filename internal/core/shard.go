package core

import (
	"fmt"

	"disttrain/internal/costmodel"
	"disttrain/internal/des"
	"disttrain/internal/ps"
	"disttrain/internal/simnet"
)

// ShardRule maps a validated config onto the protocol PS shard s speaks. The
// membership callbacks (Rule.Members, Rule.Alive) are the driver's to set:
// only it knows its fault clock.
func ShardRule(cfg *Config, s int) ps.Rule {
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
// per shard that receives, sleeps out the per-message aggregation cost, hands
// the message to the shard state machine and sends the replies it names. All
// protocol decisions are ps.Shard's; this loop owns virtual time, wire sizes
// and the fault-mode timeouts.
func (x *exp) spawnShards() {
	cfg := x.cfg
	// Elastic fault mode re-derives membership from the crash schedule (every
	// process evaluates the same pure function) and lets a shard give up on
	// messages lost to drop or partition faults after the barrier timeout.
	// Faithful mode keeps full membership and blocking receives, reproducing
	// BSP's throughput collapse when a worker dies.
	elastic := x.inj != nil && cfg.Elastic
	for s := range x.assign {
		s := s
		x.eng.Spawn(fmt.Sprintf("%s-ps%d", cfg.Algo, s), func(p *des.Proc) {
			rule := ShardRule(cfg, s)
			if elastic {
				rule.Members = x.inj.AliveCount
				// Currently dead workers are left out of SSP's staleness bound
				// so a crash does not park every fast worker for the rest of
				// the run.
				rule.Alive = func(w int) bool { return !x.inj.DeadAt(w, p.Now()) }
			}
			sh := ps.NewShard(x.global, x.assign[s], rule)
			inbox := x.psInbox(s)
			// fruitless caps the elastic re-check spin: while something waits
			// the shard wakes on a timeout to re-evaluate, but after a few
			// barren wakeups it goes back to blocking so an otherwise-finished
			// run can drain.
			fruitless := 0
			for !sh.Done() {
				var m simnet.Msg
				if elastic && sh.Waiting() && fruitless < 3 {
					var ok bool
					if m, ok = inbox.RecvTimeout(p, cfg.BarrierTimeoutSec); !ok {
						x.col.Faults.Timeouts++
						fruitless++
						out, moved := sh.Expire()
						if moved {
							fruitless = 0
						}
						x.sendReplies(s, out)
						continue
					}
				} else {
					m = inbox.Recv(p)
				}
				fruitless = 0
				if m.Kind != kindPull {
					psAggSleep(p, m.Bytes)
				}
				// Worker w's node ID is w, so From is the sender's rank.
				out, err := sh.Handle(ps.Msg{From: m.From, Kind: ps.Kind(m.Kind),
					Clock: m.Clock, Vec: m.Vec, Idx: m.SparseIdx})
				if err != nil {
					panic(fmt.Sprintf("%s shard %d: %v", cfg.Algo, s, err))
				}
				x.sendReplies(s, out)
			}
		})
	}
}

// sendReplies puts shard s's replies on the simulated network, in order.
func (x *exp) sendReplies(s int, out []ps.Reply) {
	for _, r := range out {
		switch r.Kind {
		case ps.Params:
			x.net.Send(x.snapshotMsg(s, r.To))
		case ps.Ack:
			x.net.Send(simnet.Msg{From: x.psNode[s], To: r.To,
				Kind: kindAck, Clock: r.Clock, Bytes: 16})
		case ps.PushReply:
			x.net.Send(simnet.Msg{From: x.psNode[s], To: r.To,
				Kind: kindEASGDReply, Seg: s, Bytes: x.shardBytes(s), Vec: r.Vec})
		}
	}
}

// psAggSleep models the shard-side processing cost of applying one message.
func psAggSleep(p *des.Proc, bytes int64) {
	p.Sleep(float64(bytes) / costmodel.AggRateBytesPerSec)
}

// snapshotMsg builds a shard→worker parameter reply for shard s. When DGC
// is active the reply wire size models a sparse refresh: the PS only ships
// the parameters touched since the worker's last sync — roughly the union
// of all workers' top-k updates over the pull period — because shipping the
// full dense model back would cancel most of what gradient compression
// saves. (The payload still carries the full vector in real mode; payload
// contents and wire size are decoupled throughout the simulator.)
func (x *exp) snapshotMsg(s, toNode int) simnet.Msg {
	bytes := x.shardBytes(s)
	if x.cfg.DGC != nil {
		ratio := costOnlyDGCRatio(x.cfg.DGC, x.meanDGCIter())
		period := 1
		if x.cfg.Algo == SSP {
			period = x.cfg.Staleness + 1
		}
		factor := 2 * ratio * float64(x.cfg.Workers) * float64(period)
		if factor < 1 {
			bytes = int64(float64(bytes) * factor)
			if bytes < 8 {
				bytes = 8
			}
		}
	}
	m := simnet.Msg{From: x.psNode[s], To: toNode, Kind: kindParams, Seg: s, Bytes: bytes}
	if x.global.MathOn() {
		vec := make([]float32, x.vecLen)
		x.global.Snapshot(x.assign[s], vec)
		m.Vec = vec
	}
	return m
}

// meanDGCIter returns the average per-worker compression iteration, used to
// evaluate the warm-up ratio from the PS side.
func (x *exp) meanDGCIter() int {
	if len(x.dgcIter) == 0 {
		return 0
	}
	sum := 0
	for _, v := range x.dgcIter {
		sum += v
	}
	return sum / len(x.dgcIter)
}
