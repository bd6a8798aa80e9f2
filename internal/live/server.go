package live

import (
	"io"

	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/nn"
	"disttrain/internal/ps"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// server hosts the parameter server for the centralized algorithms on mesh
// rank W. It owns a ps.Global initialized from the run's initial draw and
// the ps.Shard that updates it, and runs ps.Serve over its frames — the
// simulator's shard loop and state machine, fed through the same float paths,
// which is the PS half of the bit-identity contract. The global's parameters
// and velocity are all the model-sized state it holds: no nn.Model, no
// gradient store.
type server struct {
	cfg    *core.Config
	ep     xport.Endpoint
	global *ps.Global
	shard  *ps.Shard // the whole vector: live hosts a single shard

	// segs lays the global vector out for PS checkpoints; ckpt mirrors the
	// workers' cadence.
	segs []nn.Segment
	ckpt nn.Cadence

	// codec is the gradient wire codec workers compress with (0 = dense);
	// tr records dequantize spans on the coordinator track.
	codec xport.QuantCodec
	tr    *trace.Tracer

	// byes is how many finishers have yet to say goodbye.
	byes int
}

func newServer(cfg *core.Config, ep xport.Endpoint, o *Options) *server {
	// The simulator seeds the global from a copy of replica 0's parameters,
	// which are every replica's initial parameters: the run's initial draw.
	init := o.init.take()
	sv := &server{
		cfg:    cfg,
		ep:     ep,
		global: ps.NewGlobal(init, cfg.Momentum, cfg.WeightDecay),
		segs:   core.EvalModel(cfg).Segments(),
		ckpt:   o.ckpt,
		codec:  quantCodec(cfg),
		tr:     o.tracer,
		byes:   cfg.Workers,
	}
	var inj *fault.Injector
	if ch := newChaos(cfg); ch != nil {
		// Under a crash schedule only the workers that finish the run say
		// goodbye (a worker dead at the final iteration never returns).
		sv.byes = ch.inj.AliveCount(cfg.Iters)
		inj = ch.inj
	}
	sv.shard = ps.NewShard(sv.global, ps.Single(len(init))[0], core.ShardRule(cfg, 0, inj))
	return sv
}

// Recv is server's side of ps.Wire: the next request in arrival order, a
// quantized gradient reconstructed dense in Vec. A live wait never gives up,
// since a round waits for every member the crash schedule names. Byes are
// counted here, and service ends with the last finisher's.
func (sv *server) Recv(bool) (ps.Msg, bool, error) {
	for sv.byes > 0 {
		f, err := sv.ep.Recv(recvTimeout)
		if err != nil {
			return ps.Msg{}, false, err
		}
		switch f.Kind {
		case kindBye:
			sv.byes--
			continue
		case kindResume:
			// A worker back from a restart: the next reply to it redials.
			sv.ep.DropPeer(int(f.From))
			continue
		}
		if f.Kind == kindGrad && sv.codec != 0 {
			sp := sv.tr.StartSpan("dequantize", "quant", coordPid, 0)
			err = decodeGradPayload(sv.codec, &f, len(sv.global.Params))
			sp.End()
			if err != nil {
				return ps.Msg{}, false, err
			}
		}
		return ps.Msg{From: int(f.From), Kind: ps.Kind(f.Kind), Clock: int(f.Clock), Vec: f.Vec}, true, nil
	}
	return ps.Msg{}, false, io.EOF
}

// Send writes the replies, then the PS checkpoint of a BSP round on the
// cadence.
func (sv *server) Send(out []ps.Reply) error {
	for _, r := range out {
		f := xport.Frame{Kind: uint16(r.Kind), From: int32(sv.cfg.Workers), Clock: int32(r.Clock), Vec: r.Vec}
		if r.Kind == ps.Params {
			// The parameters are sent where they live: ps.Serve is the only
			// writer, it does not handle the next message until Send
			// returns, and Send does not retain a frame.
			f.Vec = sv.global.Params
		}
		if err := sv.ep.Send(r.To, &f); err != nil {
			return err
		}
	}
	if n := len(out); n > 0 && sv.cfg.Algo == core.BSP && sv.ckpt.Due(out[n-1].Clock) {
		return nn.SaveFlatState(sv.ckpt.Path(-1), sv.segs, sv.global.Params, &nn.TrainState{Step: uint64(out[n-1].Clock)})
	}
	return nil
}

// Release hands vec to xport's lender.
func (sv *server) Release(vec []float32) { (&xport.Frame{Vec: vec}).Release() }
