package core

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/metrics"
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
				rule.Members = x.aliveCount
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

// awaitShards is the worker's half of a PS exchange: block until every shard
// has answered with a message of kind want, scatter each answer's ranges into
// the replica's parameters and book the wait as network and global-
// aggregation time. When timed, a wait longer than BarrierTimeoutSec gives up
// and keeps the stale ranges of the shards that did not answer, so a dropped
// request or reply cannot wedge the worker. Acks arriving in between go to
// ack (SSP; nil means none are expected). Returns the parameters it set (nil
// in cost-only mode).
func (x *exp) awaitShards(p *des.Proc, w, want int, timed bool, ack func(minClock int)) []float32 {
	inbox := x.inbox(w)
	t0 := p.Now()
	var wire des.Time
	fresh := x.reps[w].Params()
	for recv := 0; recv < len(x.assign); {
		var m simnet.Msg
		if timed {
			var ok bool
			if m, ok = inbox.RecvTimeout(p, x.cfg.BarrierTimeoutSec); !ok {
				x.col.Faults.Timeouts++
				break
			}
		} else {
			m = inbox.Recv(p)
		}
		switch {
		case m.Kind == want:
			wire += m.WireSec
			if m.Vec != nil {
				for _, r := range x.assign[m.Seg] {
					copy(fresh[r.Off:r.Off+r.Len], m.Vec[r.Off:r.Off+r.Len])
				}
			}
			recv++
		case m.Kind == kindAck && ack != nil:
			ack(m.Clock)
		default:
			panic(fmt.Sprintf("%s worker: unexpected kind %d", x.cfg.Algo, m.Kind))
		}
	}
	bd := &x.col.Workers[w].Breakdown
	bd.Add(metrics.Network, wire)
	bd.Add(metrics.GlobalAgg, p.Now()-t0-wire)
	x.reps[w].SetParams(fresh)
	return fresh
}
