package live

import (
	"fmt"

	"disttrain/internal/core"
	"disttrain/internal/nn"
	"disttrain/internal/ps"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// server hosts the parameter server for the centralized algorithms on mesh
// rank W. It owns a ps.Global initialized from the shared init stream and
// the ps.Shard that updates it — the same state machine the simulator's
// shard processes drive, which is the PS half of the bit-identity contract.
type server struct {
	cfg    *core.Config
	ep     xport.Endpoint
	mb     *mailbox
	global *ps.Global
	shard  *ps.Shard
	ranges []ps.Range // the whole vector: live hosts a single shard

	// model is kept around as the serialization vehicle for PS checkpoints;
	// ch and ckpt mirror the workers' chaos membership and cadence.
	model *nn.Model
	ch    *chaos
	ckpt  nn.Cadence

	// codec is the gradient wire codec workers compress with (0 = dense);
	// tr records dequantize spans on the coordinator track.
	codec xport.QuantCodec
	tr    *trace.Tracer

	// held are the received frames whose vectors the shard may still read.
	held []xport.Frame
}

func newServer(cfg *core.Config, ep xport.Endpoint, o *Options) *server {
	// The simulator seeds the global from replica 0's parameters, which are
	// every replica's initial parameters.
	model := core.InitModel(cfg)
	init := model.FlatParams(nil)
	sv := &server{
		cfg:    cfg,
		ep:     ep,
		mb:     &mailbox{ep: ep},
		global: ps.NewGlobal(init, cfg.Momentum, cfg.WeightDecay),
		ranges: ps.Single(len(init))[0],
		model:  model,
		ch:     newChaos(cfg),
		ckpt:   o.ckpt,
		codec:  quantCodec(cfg),
		tr:     o.tracer,
	}
	rule := core.ShardRule(cfg, 0)
	if sv.ch != nil {
		// The round's barrier width is the alive membership — the
		// simulator's elastic aliveCount.
		rule.Members = sv.ch.inj.AliveCount
	}
	sv.shard = ps.NewShard(sv.global, sv.ranges, rule)
	return sv
}

// startServer runs the PS on ep, on a goroutine of its own, and returns the
// wait for its final global parameters. Both transports start it at their
// START.
func startServer(cfg *core.Config, ep xport.Endpoint, o *Options) func() ([]float32, error) {
	var params []float32
	done := make(chan error, 1)
	go func() {
		var err error
		sv := newServer(cfg, ep, o)
		if err = sv.serve(); err != nil {
			err = fmt.Errorf("live: server (%s): %w", cfg.Algo, err)
		}
		params = sv.global.Params
		done <- err
	}()
	return func() ([]float32, error) {
		err := <-done // before params: the server goroutine writes them
		return params, err
	}
}

// noServer is the wait of a decentralized run: there is no PS, and the global
// model is the replica average.
func noServer() ([]float32, error) { return nil, nil }

// dequantGrad reconstructs a quantized gradient frame's dense vector into
// f.Vec; dense runs pass frames through untouched.
func (sv *server) dequantGrad(f *xport.Frame) error {
	if sv.codec == 0 {
		return nil
	}
	sp := sv.tr.StartSpan("dequantize", "quant", coordPid, 0)
	defer sp.End()
	return decodeGradPayload(sv.codec, f, len(sv.global.Params))
}

// maybeCheckpoint writes the global parameters as a PS checkpoint if step
// is a cadence boundary.
func (sv *server) maybeCheckpoint(step int) error {
	if !sv.ckpt.Due(step) {
		return nil
	}
	sv.model.SetFlatParams(sv.global.Params)
	return nn.SaveState(sv.ckpt.Path(-1), sv.model, &nn.TrainState{Step: uint64(step)})
}

// release recycles the held frames' vectors.
func (sv *server) release() {
	for i := range sv.held {
		sv.held[i].Release()
	}
	sv.held = sv.held[:0]
}

// serve is the one frame loop under every centralized algorithm: receive,
// dequantize, hand the message to the shard state machine — the simulator's,
// fed through the same float paths — and send the replies it names. What the
// PS does with a message is ps.Shard's; this loop owns the wire: matching BSP
// gradients to the open round, frame recycling, byes, checkpoints and the
// chaos membership.
func (sv *server) serve() error {
	// Under a crash schedule only the workers that finish the run say
	// goodbye (a worker dead at the final iteration never returns).
	want := sv.cfg.Workers
	if sv.ch != nil {
		want = sv.ch.finisherCount()
	}
	opened := 0
	for byes := 0; byes < want; {
		// BSP gradients are matched to the open round: a restarted worker
		// may send its first gradient while the server is rounds behind.
		// Once the last round has closed only byes are expected.
		round := sv.shard.Round()
		var f xport.Frame
		var err error
		switch {
		case round > 0:
			if round != opened {
				opened = round
				dropResumedPeers(sv.ep, sv.ch, sv.cfg.Workers, round)
			}
			f, _, err = sv.mb.recv(int32(kindGrad), int32(round), 0, core.Block)
		case sv.shard.Done():
			f, _, err = sv.mb.recv(int32(kindBye), 0, 0, core.Block)
		default:
			f, _, err = sv.mb.recv(anyField, anyField, anyField, core.Block)
		}
		if err != nil {
			return err
		}
		if f.Kind == kindBye {
			byes++
			continue
		}
		if f.Kind == kindGrad {
			if err := sv.dequantGrad(&f); err != nil {
				return err
			}
		}
		out, err := sv.shard.Handle(ps.Msg{From: int(f.From), Kind: ps.Kind(f.Kind),
			Clock: int(f.Clock), Vec: f.Vec})
		if err != nil {
			return err
		}
		// The shard reads a frame's vector until it has named the reply to
		// its sender — a BSP round folds when it closes — so frames are held
		// until replies come out. They are recycled before the replies are
		// written, so the ranks receiving meanwhile reuse the buffers; only
		// EASGD's reply carries the frame's own vector and needs it longer.
		sv.held = append(sv.held, f)
		if len(out) == 0 {
			continue
		}
		if out[0].Kind != ps.PushReply {
			sv.release()
		}
		for _, r := range out {
			rf := xport.Frame{Kind: uint16(r.Kind), From: int32(sv.cfg.Workers), Clock: int32(r.Clock), Vec: r.Vec}
			if r.Kind == ps.Params {
				// The parameters are sent where they live: this loop is the
				// only writer, it does not handle the next message until Send
				// returns, and Send does not retain a frame.
				rf.Vec = sv.global.Params
			}
			if err := sv.ep.Send(r.To, &rf); err != nil {
				return err
			}
		}
		sv.release()
		if round > 0 {
			if err := sv.maybeCheckpoint(round); err != nil {
				return err
			}
		}
	}
	return nil
}
