package core

import (
	"fmt"

	"disttrain/internal/comm"
	"disttrain/internal/grad"
	"disttrain/internal/ps"
)

// Msg is one worker-protocol message; the wire fills From on a send. Seg is
// the shard of a parameter-server request or reply or a collective's tag,
// Wire the seconds the receiver books for the message (see Env.Send).
//
// A collective's chunk says where it sits: it stands for N elements of a
// vector of Of (0 for a whole-vector message). Own marks the sender's own
// contribution on the gradient codec's grid — an AllReduce chunk or a dense
// gradient request — with its int8 scale in Aux and its int8 codes in Codes,
// which a wire may ship in codec form. A DGC gradient request carries the
// shard's entries, indices in Idx and values in Vec, and in Aux the fraction
// of the vector the whole gradient keeps.
type Msg struct {
	Kind, From, Clock, Seg int
	Aux                    float64
	Vec                    []float32
	Wire                   float64
	N, Of                  int
	Own                    bool
	Codes                  []int8
	Idx                    []int32
}

// Any, as a receive's kind, clock or seg, matches every message.
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
// out is the message a send builds, zero between sends: the Env keeps none,
// so one serves every send of the thread, and it holds on to no vector.
type protocol struct {
	e   Env
	cfg *Config
	rep *Replica
	out Msg
}

func newProtocol(e Env, cfg *Config, rep *Replica) *protocol {
	return &protocol{e: e, cfg: cfg, rep: rep}
}

// book closes step s, begun at begin, on the thread's ledger, and returns
// when it ended.
func (pr *protocol) book(s Step, begin, wire float64) float64 {
	l := pr.e.Ledger()
	end := l.Now()
	l.Book(s, begin, end, wire)
	return end
}

// unexpected is the protocol error of a message a step did not wait for.
func unexpected(m *Msg, want int) error {
	return fmt.Errorf("unexpected kind %d from %d, want %d", m.Kind, m.From, want)
}

// recv is the Env's receive of a message whose vector, if any, the replica
// folds whole — parameters, a peer's vector: one of another length is a
// protocol error.
func (pr *protocol) recv(kind, clock, seg int, wait Wait) (*Msg, bool, error) {
	m, ok, err := pr.e.Recv(kind, clock, seg, wait)
	if mod := pr.rep.model; ok && err == nil && m.Vec != nil && mod != nil && len(m.Vec) != mod.NumParams() {
		err = fmt.Errorf("kind %d from %d holds %d elements, want %d", m.Kind, m.From, len(m.Vec),
			mod.NumParams())
	}
	return m, ok, err
}

// request ships a parameter-server request of the given kind, one message
// per shard — shard s is node Workers+s on both runtimes, after the workers —
// and returns when the step began and the wire seconds of its sends. A
// gradient goes out on the gradient codec's grid: DGC-compressed, each shard
// taking the entries it owns, or dense, every shard reading its own ranges of
// the one vector. With wait-free BP the sends ride on the backward pass the
// Env books as compute (see Env.Compute): the step begins once they are out.
func (pr *protocol) request(kind ps.Kind, it int, vec []float32) (begin, wire float64, err error) {
	cfg, rep := pr.cfg, pr.rep
	begin = pr.e.Ledger().Now()
	m := &pr.out
	m.Kind, m.Clock, m.Vec = int(kind), it, vec
	var idx []int32
	var val []float32
	var ends []int
	switch {
	case kind != ps.Grad:
	case cfg.DGC != nil:
		m.Kind, m.Vec = kindSparseGrad, nil
		m.Aux, idx, val, ends = pr.compress(vec)
	default:
		m.Own, m.Aux, m.Codes = roundTrip(cfg, vec, &rep.codes)
	}
	for s, lo := 0, 0; s < len(rep.shards) && err == nil; s++ {
		m.Seg = s
		if ends != nil {
			if hi := ends[s]; lo < hi {
				m.Idx, m.Vec, lo = idx[lo:hi:hi], val[lo:hi:hi], hi
			} else {
				m.Idx, m.Vec = nil, nil
			}
		}
		var w float64
		w, err = pr.e.Send(cfg.Workers+s, m)
		wire += w
	}
	*m = Msg{}
	if err != nil {
		return begin, wire, err
	}
	if cfg.WaitFreeBP {
		begin = pr.e.Ledger().Now()
	}
	return begin, wire, nil
}

// compress is DGC on the replica's compressor, which keeps what g does not
// send: the top entries, their values on the gradient codec's grid, laid out
// shard by shard in one index and one value buffer — shard s's entries end
// at ends[s], where shard s+1's begin. The two buffers are the request's to
// give away: a simulated shard reads its message when it arrives, after this
// worker may have compressed again. ratio is the fraction of the vector the
// entries are, or without real math the warm-up schedule's.
func (pr *protocol) compress(g []float32) (ratio float64, idx []int32, val []float32, ends []int) {
	rep := pr.rep
	if rep.dgc == nil {
		ratio = pr.cfg.DGC.RatioAt(rep.dgcIter)
		rep.dgcIter++
		return ratio, nil, nil, nil
	}
	sp := rep.dgc.Compress(g)
	rep.dgcIter++
	roundTrip(pr.cfg, sp.Val, &rep.codes)
	// Count each shard's entries, turn the counts into starts, and copy the
	// runs of sp each range holds to their shard's place: the starts move
	// up to the ends.
	ends = make([]int, len(rep.shards))
	rep.loc.Runs(sp.Idx, func(s, lo, hi int) { ends[s] += hi - lo })
	n := 0
	for s, c := range ends {
		ends[s], n = n, n+c
	}
	idx, val = make([]int32, n), make([]float32, n)
	rep.loc.Runs(sp.Idx, func(s, lo, hi int) {
		copy(val[ends[s]:], sp.Val[lo:hi])
		ends[s] += copy(idx[ends[s]:], sp.Idx[lo:hi])
	})
	return float64(len(sp.Idx)) / float64(len(g)), idx, val, ends
}

// exchange is one round trip through the parameter server: ship vec to every
// shard and install the ranges each answer carries; SSP acks that overtake an
// answer go to ack. A barrier-bound worker (BSP, and SSP parked behind the
// clock service) gives up on answers lost to drop or partition faults only in
// elastic mode, an asynchronous one (ASP, EASGD) under any fault schedule; it
// trains on with the stale shard parameters.
func (pr *protocol) exchange(kind ps.Kind, it int, vec []float32, ack func(minClock int)) error {
	begin, wire, err := pr.request(kind, it, vec)
	if err != nil {
		return err
	}
	shards := pr.rep.shards
	want, wait := kindParams, Block
	if kind == ps.Push {
		want = kindEASGDReply
	}
	if !pr.cfg.Faults.Empty() && (pr.cfg.Elastic || pr.cfg.Algo == ASP || kind == ps.Push) {
		wait = Bounded
	}
	for got := 0; got < len(shards); {
		m, ok, err := pr.recv(Any, Any, Any, wait)
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
func (pr *protocol) update(it int, vec []float32) error {
	begin, wire, err := pr.request(ps.Grad, it, vec)
	if err == nil {
		pr.book(StepUpdate, begin, wire)
	}
	return err
}

// drain hands take every message already arrived, each of the given kind
// (SSP's acks, GoSGD's pushes) — but a parameter reply released after its
// pull timed out, which is dropped.
func (pr *protocol) drain(kind int, take func(*Msg)) error {
	for {
		m, ok, err := pr.recv(Any, Any, Any, Poll)
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

// send ships a whole-vector message to a peer.
func (pr *protocol) send(to, kind, clock int, aux float64, vec []float32) (float64, error) {
	m := &pr.out
	m.Kind, m.Clock, m.Aux, m.Vec = kind, clock, aux, vec
	wire, err := pr.e.Send(to, m)
	*m = Msg{}
	return wire, err
}

// toPeer pushes vec and the mixing weight aux to a peer without waiting.
func (pr *protocol) toPeer(to, it int, aux float64, vec []float32) error {
	begin := pr.e.Ledger().Now()
	wire, err := pr.send(to, KindGossip, it, aux, vec)
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
func (pr *protocol) swap(peer, it int, vec []float32) error {
	begin := pr.e.Ledger().Now()
	wire, err := pr.send(peer, KindExchangeReq, it, 0, vec)
	if err != nil {
		return err
	}
	wait := Block
	if !pr.cfg.Faults.Empty() {
		wait = Bounded
	}
	m, ok, err := pr.recv(KindExchangeReply, Any, Any, wait)
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
func (pr *protocol) answer(serve bool) error {
	wait := Poll
	if serve {
		wait = Serve
	}
	for {
		m, ok, err := pr.recv(Any, Any, Any, wait)
		if err != nil || !ok {
			return err
		}
		if m.Kind != KindExchangeReq {
			return unexpected(m, KindExchangeReq)
		}
		begin := pr.e.Ledger().Now()
		wire, err := pr.send(m.From, KindExchangeReply, m.Clock, 0, pr.rep.Params())
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
func (pr *protocol) neighbors(it int, nbs []int, vec []float32) ([][]float32, error) {
	begin := pr.e.Ledger().Now()
	var wire float64
	for _, nb := range nbs {
		w, err := pr.send(nb, KindExchangeReq, it, 0, vec)
		if err != nil {
			return nil, err
		}
		wire += w
	}
	out := make([][]float32, len(nbs))
	got := make([]bool, len(nbs))
	for range nbs {
		m, _, err := pr.recv(KindExchangeReq, it, Any, Block)
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

// link is the one comm.Link of both runtimes: a collective call's view of the
// Env's wire. Members are addressed through nodes; vec is nil without real
// math, and of is then the length its chunks stand for. own marks vec as the
// member's own contribution round-tripped through the gradient codec, codes
// as its int8 codes, aux is every message's Aux (that contribution's int8
// scale, or a broadcast's stamp), and wire sums the wire seconds of the
// call's sends and of what it took. out is the message every send builds.
type link struct {
	e           Env
	kind, clock int
	nodes       []int
	vec         []float32
	codes       []int8
	of          int
	own         bool
	aux         float64
	wire        float64
	out         Msg
}

func (l *link) Send(to, seg, lo, hi int, own bool) error {
	m := &l.out
	*m = Msg{}
	m.Kind, m.Clock, m.Seg, m.Aux, m.N, m.Of, m.Own = l.kind, l.clock, seg, l.aux, hi-lo, l.of, own && l.own
	if l.vec != nil {
		m.Vec = l.vec[lo:hi]
	}
	if m.Own && l.codes != nil {
		m.Codes = l.codes[lo:hi]
	}
	w, err := l.e.Send(l.nodes[to], m)
	l.wire += w
	return err
}

// Recv takes the chunk tagged seg of the call's round, parking the rest.
func (l *link) Recv(seg, lo, hi int, fold comm.Fold) error {
	m, _, err := l.e.Recv(l.kind, l.clock, seg, Block)
	if err != nil {
		return err
	}
	l.wire += m.Wire
	if l.vec != nil {
		if len(m.Vec) != hi-lo {
			return fmt.Errorf("collective chunk %d from %d holds %d elements, want %d", seg, m.From, len(m.Vec), hi-lo)
		}
		fold(l.vec[lo:hi], m.Vec)
	}
	l.e.Release(m.Vec)
	return nil
}

// roundTrip applies the run's gradient codec to g, a worker's own
// contribution, in place: every receiver then gets exactly what g carries in
// codec form, while an AllReduce's partial sums travel dense. It reports
// whether it did and, for int8, the scale and the codes, written into *codes
// by the pass that rounds g: a wire ships any slice of them for that slice of
// g.
func roundTrip(cfg *Config, g []float32, codes *[]int8) (own bool, scale float64, q []int8) {
	switch {
	case g == nil:
	case cfg.Quantize8:
		c := grad.Quantize8RoundTripInto(g, *codes)
		*codes = c.Q
		return true, float64(c.Scale), c.Q
	case cfg.QuantizeF16:
		grad.QuantizeF16RoundTrip(g)
		return true, 0, nil
	}
	return false, 0, nil
}

// allReduce is AR-SGD's round: it sums the pass's gradient over the round's
// members with plan pl, in place in the model's gradient store, and returns
// the sum (nil without real math). With wait-free BP the gradient is reduced
// in two buckets, the output-side half while the backward pass still
// produces the input-side half — the bucketing real DDP stacks use.
func (pr *protocol) allReduce(pl comm.Plan, it int, nodes []int, self int) ([]float32, error) {
	n := pr.rep.vecLen(pr.cfg)
	cut := 0
	if pr.cfg.WaitFreeBP && n > 1 {
		// Before Grad: the simulator's pass on the compute pool then runs
		// while the first half of the backward pass is slept out.
		cut = n / 2
		pr.e.Ready(cut, n)
	}
	g := pr.e.Grad()
	own, scale, codes := roundTrip(pr.cfg, g, &pr.rep.codes)
	reduce := func(lo, hi int) error {
		begin := pr.e.Ledger().Now()
		l := &link{e: pr.e, kind: KindAllReduce, clock: it, nodes: nodes, of: hi - lo, own: own, aux: scale}
		if g != nil {
			l.vec = g[lo:hi]
		}
		if codes != nil {
			l.codes = codes[lo:hi]
		}
		if err := pl.Run(l, len(nodes), self, hi-lo); err != nil {
			return err
		}
		pr.book(StepAllReduce, begin, l.wire)
		return nil
	}
	if err := reduce(cut, n); err != nil || cut == 0 {
		return g, err
	}
	pr.e.Ready(0, cut)
	return g, reduce(0, cut)
}

// gatherSum is local aggregation's gather: the machine leader, member 0 of
// group, folds its members' gradients into its own, g, in rank order; a
// member ships its gradient dense — the codec applies once, to the sum the
// leader pushes — and moves on. It returns when the step ended: the stamp the
// leader's bcast carries.
func (pr *protocol) gatherSum(it int, group []int, self int, g []float32) (float64, error) {
	begin := pr.e.Ledger().Now()
	n := pr.rep.vecLen(pr.cfg)
	l := &link{e: pr.e, kind: KindLocalGather, clock: it, nodes: group, vec: g, of: n}
	if err := (comm.Plan{Op: comm.OpGather}).Run(l, len(group), self, n); err != nil {
		return 0, err
	}
	return pr.book(StepGatherSum, begin, l.wire), nil
}

// bcast relays the parameters of the global round from the machine leader to
// every member of group, which installs them. The leader stamps them with
// gathered, when its gather ended on its ledger's clock; a member's wait
// splits there into local aggregation and the global round (Ledger.Split).
// The leader sends its parameters where they lie: every wire copies what it
// sends before Send returns, and nothing else writes them meanwhile.
func (pr *protocol) bcast(it int, group []int, self int, gathered float64) error {
	l := pr.e.Ledger()
	begin := l.Now()
	if self == 0 {
		n := pr.rep.vecLen(pr.cfg)
		lk := &link{e: pr.e, kind: KindLocalBcast, clock: it, nodes: group, vec: pr.rep.Weights(), of: n,
			aux: gathered}
		if err := (comm.Plan{Op: comm.OpBroadcast}).Run(lk, len(group), 0, n); err != nil {
			return err
		}
		pr.book(StepBcast, begin, lk.wire)
		return nil
	}
	m, _, err := pr.recv(KindLocalBcast, it, 0, Block)
	if err != nil {
		return err
	}
	l.Split(StepBcast, begin, l.Now(), m.Wire, m.Aux)
	pr.rep.SetParams(m.Vec)
	pr.e.Release(m.Vec)
	return nil
}

// Collective runs plan pl over e's wire as member self of nodes in round it,
// on vec in place, with the links and codec handling of the loops'
// collectives: an AllReduce sums vec, round-tripped through cfg's gradient
// codec first as allReduce does; a gather folds the members' vectors into
// member 0's; a broadcast overwrites the members' with member 0's. It is the
// worker protocol's collective layer for a caller that holds its own vector.
func Collective(e Env, cfg *Config, pl comm.Plan, it int, nodes []int, self int, vec []float32) error {
	l := &link{e: e, kind: KindAllReduce, clock: it, nodes: nodes, vec: vec, of: len(vec)}
	switch pl.Op {
	case comm.OpGather:
		l.kind = KindLocalGather
	case comm.OpBroadcast:
		l.kind = KindLocalBcast
	default:
		l.own, l.aux, l.codes = roundTrip(cfg, vec, new([]int8))
	}
	return pl.Run(l, len(nodes), self, len(vec))
}
