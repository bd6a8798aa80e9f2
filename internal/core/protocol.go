package core

import (
	"fmt"

	"disttrain/internal/ps"
)

// Msg is one worker-protocol message; the wire fills From on a send. Seg is
// the answering shard of a parameter-server reply, Wire the seconds the
// receiver books for the message (see Env.Send).
type Msg struct {
	Kind, From, Clock, Seg int
	Aux                    float64
	Vec                    []float32
	Wire                   float64
}

// Any, as a receive's kind or clock, matches every message.
const Any = -1

// Wait says how long a receive waits. Poll takes only what has arrived.
// Block waits; live turns its receive timeout into an error. Bounded is Block
// where a fault schedule may lose the message: the simulator gives up after
// Config.BarrierTimeoutSec. Serve waits as long as the run lasts.
type Wait int

const (
	Poll Wait = iota
	Block
	Bounded
	Serve
)

// protocol is one worker thread's message protocol over its Env's wire. Every
// step books wire = the wire seconds of its sends + those of what it took.
type protocol struct {
	e   Env
	cfg *Config
	rep *Replica
}

// book closes step s, begun at begin, on the thread's ledger.
func (pr protocol) book(s Step, begin, wire float64) {
	l := pr.e.Ledger()
	l.Book(s, begin, l.Now(), wire)
}

// unexpected is the protocol error of a message a step did not wait for.
func unexpected(m Msg, want int) error {
	return fmt.Errorf("unexpected kind %d from %d, want %d", m.Kind, m.From, want)
}

// exchange is one round trip through the parameter server: ship vec to every
// shard and install the ranges each answer carries; SSP acks that overtake an
// answer go to ack. A barrier-bound worker (BSP, and SSP parked behind the
// clock service) gives up on answers lost to drop or partition faults only in
// elastic mode, an asynchronous one (ASP, EASGD) under any fault schedule; it
// trains on with the stale shard parameters.
func (pr protocol) exchange(kind ps.Kind, it int, vec []float32, ack func(minClock int)) error {
	shards, begin, wire, err := pr.e.SendPS(kind, it, vec)
	if err != nil {
		return err
	}
	want, wait := kindParams, Block
	if kind == ps.Push {
		want = kindEASGDReply
	}
	if !pr.cfg.Faults.Empty() && (pr.cfg.Elastic || pr.cfg.Algo == ASP || kind == ps.Push) {
		wait = Bounded
	}
	for got := 0; got < len(shards); {
		m, ok, err := pr.e.Recv(Any, Any, wait)
		if err != nil {
			return err
		}
		if !ok {
			break // the shards that did not answer keep their stale ranges
		}
		switch {
		case m.Kind == want && m.Seg >= 0 && m.Seg < len(shards):
			wire += m.Wire
			pr.rep.SetRanges(m.Vec, shards[m.Seg])
			pr.e.Release(m.Vec)
			got++
		case m.Kind == kindAck && ack != nil:
			ack(m.Clock)
		default:
			return unexpected(m, want)
		}
	}
	pr.book(StepExchange, begin, wire)
	return nil
}

// update is SSP's fire-and-forget gradient push.
func (pr protocol) update(it int, vec []float32) error {
	_, begin, wire, err := pr.e.SendPS(ps.Grad, it, vec)
	if err == nil {
		pr.book(StepUpdate, begin, wire)
	}
	return err
}

// drain hands take every message already arrived, each of the given kind
// (SSP's acks, GoSGD's pushes) — but a parameter reply released after its
// pull timed out, which is dropped.
func (pr protocol) drain(kind int, take func(Msg)) error {
	for {
		m, ok, err := pr.e.Recv(Any, Any, Poll)
		if err != nil || !ok {
			return err
		}
		switch {
		case m.Kind == kind:
			take(m)
		case m.Kind != kindParams || pr.cfg.Faults.Empty():
			return unexpected(m, kind)
		}
		pr.e.Release(m.Vec)
	}
}

// toPeer pushes vec and the mixing weight aux to a peer without waiting.
func (pr protocol) toPeer(to, it int, aux float64, vec []float32) error {
	begin := pr.e.Ledger().Now()
	wire, err := pr.e.Send(to, Msg{Kind: KindGossip, Clock: it, Aux: aux, Vec: vec})
	if err == nil {
		pr.book(StepToPeer, begin, wire)
	}
	return err
}

// swap is one symmetric exchange with peer: ship vec, wait for the peer's
// parameters and average them in; requests from others stay parked for
// answer. Under a fault schedule a lost request or reply times out and the
// worker trains on. The no-bipartite ablation books nothing: it shows whether
// its threads deadlock, not what they cost.
func (pr protocol) swap(peer, it int, vec []float32) error {
	begin := pr.e.Ledger().Now()
	wire, err := pr.e.Send(peer, Msg{Kind: KindExchangeReq, Clock: it, Vec: vec})
	if err != nil {
		return err
	}
	wait := Block
	if !pr.cfg.Faults.Empty() {
		wait = Bounded
	}
	m, ok, err := pr.e.Recv(KindExchangeReply, Any, wait)
	if err != nil || !ok {
		return err
	}
	if !pr.cfg.ADPSGDNoBipartite {
		pr.book(StepSwap, begin, wire+m.Wire)
	}
	pr.rep.Average(m.Vec)
	pr.e.Release(m.Vec)
	return nil
}

// answer replies to each request with the replica's parameters and averages
// the requester's in: to those already waiting, or with serve to every one
// until the run is torn down. It waits for nothing: beyond its reply's send it
// books the request's wire time.
func (pr protocol) answer(serve bool) error {
	wait := Poll
	if serve {
		wait = Serve
	}
	for {
		m, ok, err := pr.e.Recv(Any, Any, wait)
		if err != nil || !ok {
			return err
		}
		if m.Kind != KindExchangeReq {
			return unexpected(m, KindExchangeReq)
		}
		begin := pr.e.Ledger().Now()
		wire, err := pr.e.Send(m.From, Msg{Kind: KindExchangeReply, Clock: m.Clock, Vec: pr.rep.Params()})
		if err != nil {
			return err
		}
		pr.rep.Average(m.Vec)
		pr.e.Release(m.Vec)
		if !pr.cfg.ADPSGDNoBipartite {
			pr.book(StepAnswer, begin, wire+m.Wire)
		}
	}
}

// neighbors ships vec to every node of nbs and returns their round-it
// vectors in the order of nbs, for the caller to release: each goes to its
// sender's first open slot (with two workers the one peer sends twice). A
// neighbour's next round's vector stays parked.
func (pr protocol) neighbors(it int, nbs []int, vec []float32) ([][]float32, error) {
	begin := pr.e.Ledger().Now()
	var wire float64
	for _, nb := range nbs {
		w, err := pr.e.Send(nb, Msg{Kind: KindExchangeReq, Clock: it, Vec: vec})
		if err != nil {
			return nil, err
		}
		wire += w
	}
	out := make([][]float32, len(nbs))
	got := make([]bool, len(nbs))
	for range nbs {
		m, _, err := pr.e.Recv(KindExchangeReq, it, Block)
		if err != nil {
			return nil, err
		}
		i := 0
		for i < len(nbs) && (nbs[i] != m.From || got[i]) {
			i++
		}
		if i == len(nbs) {
			return nil, fmt.Errorf("round-%d vector from non-neighbour %d", it, m.From)
		}
		out[i], got[i] = m.Vec, true
		wire += m.Wire
	}
	pr.book(StepNeighbors, begin, wire)
	return out, nil
}
