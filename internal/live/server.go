package live

import (
	"fmt"
	"sort"

	"disttrain/internal/core"
	"disttrain/internal/nn"
	"disttrain/internal/ps"
	"disttrain/internal/rng"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// server hosts the parameter server for the centralized algorithms on mesh
// rank W. It owns a ps.Global initialized from the shared init stream —
// the same ps.Global, fed through the same float paths, that the simulator
// uses, which is half of the bit-identity contract (the other half is the
// workers' pinned reduction order).
type server struct {
	cfg    *core.Config
	W      int
	ep     xport.Endpoint
	mb     *mailbox
	global *ps.Global
	assign ps.Assignment
	vecLen int

	// model is kept around as the serialization vehicle for PS checkpoints;
	// ch and ckpt mirror the workers' chaos membership and cadence.
	model *nn.Model
	ch    *chaos
	ckpt  nn.Cadence

	// codec is the gradient wire codec workers compress with (0 = dense);
	// tr records dequantize spans on the coordinator track.
	codec xport.QuantCodec
	tr    *trace.Tracer

	// snap is the one parameter-reply buffer: Send never retains a frame,
	// so every reply re-snapshots into it instead of allocating a model.
	snap []float32
}

func newServer(cfg *core.Config, ep xport.Endpoint, o *Options) *server {
	// The simulator seeds the global from replica 0's parameters; every
	// replica starts from the shared init stream (seed → Split(1)), so
	// building a model from a fresh stream yields the identical vector.
	model := cfg.Real.Factory(rng.New(cfg.Seed).Split(1))
	init := model.FlatParams(nil)
	sv := &server{
		cfg:    cfg,
		W:      cfg.Workers,
		ep:     ep,
		mb:     newMailbox(ep),
		global: ps.NewGlobal(init, cfg.Momentum, cfg.WeightDecay),
		assign: ps.Single(len(init)),
		vecLen: len(init),
		model:  model,
		ch:     newChaos(cfg),
		codec:  quantCodec(cfg),
		snap:   make([]float32, len(init)),
	}
	if o != nil {
		sv.ckpt = o.ckpt
		sv.tr = o.tracer
	}
	return sv
}

// dequantGrad reconstructs a quantized gradient frame's dense vector into
// f.Vec; dense runs pass frames through untouched.
func (sv *server) dequantGrad(f *xport.Frame) error {
	if sv.codec == 0 {
		return nil
	}
	sp := sv.tr.StartSpan("dequantize", "quant", coordPid, 0)
	defer sp.End()
	return decodeGradPayload(sv.codec, f, sv.vecLen)
}

// maybeCheckpoint writes the global parameters as a PS checkpoint if step
// is a cadence boundary.
func (sv *server) maybeCheckpoint(step int) error {
	if !sv.ckpt.Due(step) {
		return nil
	}
	sv.model.SetFlatParams(sv.snapshot())
	return nn.SaveState(sv.ckpt.Path(-1), sv.model, &nn.TrainState{Step: uint64(step)})
}

// snapshot copies the global parameters into the reply buffer and returns
// it; the result is valid until the next snapshot.
func (sv *server) snapshot() []float32 {
	sv.global.Snapshot(sv.assign[0], sv.snap)
	return sv.snap
}

// run serves the PS protocol until every worker has sent its mesh-level
// bye, then returns the final global parameters.
func (sv *server) run() ([]float32, error) {
	var err error
	switch sv.cfg.Algo {
	case core.BSP:
		err = sv.runBSP()
	case core.ASP:
		err = sv.runASP()
	case core.SSP:
		err = sv.runSSP()
	case core.EASGD:
		err = sv.runEASGD()
	default:
		err = fmt.Errorf("no server loop for %s", sv.cfg.Algo)
	}
	if err != nil {
		return nil, fmt.Errorf("live: server (%s): %w", sv.cfg.Algo, err)
	}
	return sv.snapshot(), nil
}

// awaitByes blocks until the remaining workers have said goodbye — all of
// them, or under a crash schedule only the ones that finish the run (a
// worker dead at the final iteration never returns). Frames of other kinds
// at this point are protocol violations.
func (sv *server) awaitByes(byes int) error {
	want := sv.W
	if sv.ch != nil {
		want = sv.ch.finisherCount()
	}
	for byes < want {
		f, err := sv.mb.recvMatch(kindBye, 0, 0, false, recvTimeout)
		if err != nil {
			return err
		}
		_ = f
		byes++
	}
	return nil
}

// runBSP aggregates one synchronous round per iteration. The gradients are
// summed in ascending sender rank — the reduction-order contract shared
// with core's runBSP — and the updated parameters go back to all workers.
func (sv *server) runBSP() error {
	cfg := sv.cfg
	agg := make([]float32, sv.vecLen)
	for it := 0; it < cfg.Iters; it++ {
		// The round's barrier width is the alive membership — the
		// simulator's elastic aliveCount — and connections to workers
		// resuming this round are refreshed before their first exchange.
		expect := sv.W
		if sv.ch != nil {
			if pd, ok := sv.ep.(peerDropper); ok {
				for w := 0; w < sv.W; w++ {
					if sv.ch.resumedAt(w, it+1) {
						pd.DropPeer(w)
					}
				}
			}
			expect = sv.ch.aliveCount(it + 1)
			if expect == 0 {
				continue
			}
		}
		msgs := make([]xport.Frame, 0, expect)
		for i := 0; i < expect; i++ {
			f, err := sv.mb.recvMatch(kindGrad, int32(it+1), 0, false, recvTimeout)
			if err != nil {
				return err
			}
			if err := sv.dequantGrad(&f); err != nil {
				return err
			}
			msgs = append(msgs, f)
		}
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].From < msgs[j].From })
		clear(agg)
		for i := range msgs {
			for j, v := range msgs[i].Vec {
				agg[j] += v
			}
			msgs[i].Release()
		}
		sv.global.ApplyGrad(sv.assign[0], agg, 1/float32(expect), cfg.LR.At(it))
		snap := sv.snapshot()
		for _, m := range msgs {
			if err := sv.ep.Send(int(m.From), &xport.Frame{Kind: kindParams, From: int32(sv.W),
				Clock: m.Clock, Vec: snap}); err != nil {
				return err
			}
		}
		if err := sv.maybeCheckpoint(it + 1); err != nil {
			return err
		}
	}
	return sv.awaitByes(0)
}

// runASP applies every arriving gradient immediately and replies with the
// updated parameters — no worker waits for another.
func (sv *server) runASP() error {
	cfg := sv.cfg
	byes := 0
	for byes < sv.W {
		f, err := sv.mb.recv(recvTimeout)
		if err != nil {
			return err
		}
		switch f.Kind {
		case kindGrad:
			if err := sv.dequantGrad(&f); err != nil {
				return err
			}
			sv.global.ApplyGrad(sv.assign[0], f.Vec, 1, cfg.LR.At(int(f.Clock)-1))
			f.Release()
			if err := sv.ep.Send(int(f.From), &xport.Frame{Kind: kindParams, From: int32(sv.W),
				Clock: f.Clock, Vec: sv.snapshot()}); err != nil {
				return err
			}
		case kindBye:
			byes++
		default:
			return fmt.Errorf("asp: unexpected kind %d", f.Kind)
		}
	}
	return nil
}

// runSSP accumulates worker deltas and doubles as the clock service:
// gradient messages update the sender's clock and trigger a tiny ack
// carrying the minimum clock; pull requests park until the staleness bound
// is restored. A finished worker's clock stays at Iters, so every parked
// pull provably drains before the last bye.
func (sv *server) runSSP() error {
	cfg := sv.cfg
	s := cfg.Staleness
	clocks := make([]int, sv.W)
	type pending struct{ worker, clock int }
	var parked []pending
	minClock := func() int {
		m := clocks[0]
		for _, c := range clocks[1:] {
			if c < m {
				m = c
			}
		}
		return m
	}
	release := func() error {
		mc := minClock()
		keep := parked[:0]
		for _, pk := range parked {
			if mc >= pk.clock-s {
				if err := sv.ep.Send(pk.worker, &xport.Frame{Kind: kindParams, From: int32(sv.W),
					Clock: int32(pk.clock), Vec: sv.snapshot()}); err != nil {
					return err
				}
			} else {
				keep = append(keep, pk)
			}
		}
		parked = keep
		return nil
	}
	byes := 0
	for byes < sv.W {
		f, err := sv.mb.recv(recvTimeout)
		if err != nil {
			return err
		}
		switch f.Kind {
		case kindGrad:
			// Petuum-style SSP: the worker sends its locally applied
			// *update*; the PS accumulates it.
			if err := sv.dequantGrad(&f); err != nil {
				return err
			}
			sv.global.AddDelta(sv.assign[0], f.Vec)
			f.Release()
			clocks[f.From] = int(f.Clock)
			if err := sv.ep.Send(int(f.From), &xport.Frame{Kind: kindAck, From: int32(sv.W),
				Clock: int32(minClock())}); err != nil {
				return err
			}
			if err := release(); err != nil {
				return err
			}
		case kindPull:
			if minClock() < int(f.Clock)-s {
				parked = append(parked, pending{worker: int(f.From), clock: int(f.Clock)})
			} else if err := sv.ep.Send(int(f.From), &xport.Frame{Kind: kindParams, From: int32(sv.W),
				Clock: f.Clock, Vec: sv.snapshot()}); err != nil {
				return err
			}
		case kindBye:
			byes++
		default:
			return fmt.Errorf("ssp: unexpected kind %d", f.Kind)
		}
	}
	return nil
}

// runEASGD performs the symmetric elastic move on every parameter push and
// returns the updated local parameters to the sender.
func (sv *server) runEASGD() error {
	alpha := float32(sv.cfg.MovingRate)
	byes := 0
	for byes < sv.W {
		f, err := sv.mb.recv(recvTimeout)
		if err != nil {
			return err
		}
		switch f.Kind {
		case kindEASGDPush:
			// ElasticUpdate mutates the pushed vector in place; the reply
			// carries the updated local parameters.
			sv.global.ElasticUpdate(sv.assign[0], f.Vec, alpha)
			if err := sv.ep.Send(int(f.From), &xport.Frame{Kind: kindEASGDReply, From: int32(sv.W),
				Clock: f.Clock, Vec: f.Vec}); err != nil {
				return err
			}
			f.Release()
		case kindBye:
			byes++
		default:
			return fmt.Errorf("easgd: unexpected kind %d", f.Kind)
		}
	}
	return nil
}
