package ps

import (
	"fmt"
	"sort"

	"disttrain/internal/opt"
)

// Kind names a parameter-server message. The values are the wire kinds of
// both runtimes (internal/core's simnet kinds and internal/live's frame
// kinds are defined from them), so a driver converts with a cast.
type Kind int

const (
	Grad       Kind = iota + 1 // dense gradient (BSP, ASP) or locally applied update (SSP)
	SparseGrad                 // DGC: Idx and Vec hold the transmitted coordinates
	Params                     // reply: the shard's ranges of the global parameters
	Pull                       // SSP: asks for Params once the staleness bound holds
	Ack                        // SSP reply: Clock is the minimum worker clock
	Push                       // EASGD: the worker's parameters
	PushReply                  // EASGD reply: Vec is the pushed vector after the elastic move
)

// Msg is one worker→shard message, stripped of transport and timing.
type Msg struct {
	From  int // sender's worker rank
	Kind  Kind
	Clock int       // sender's 1-based iteration
	Vec   []float32 // full-length dense vector, or the SparseGrad values
	Idx   []int32   // SparseGrad coordinates
}

// Reply is one message the shard wants sent. The driver builds the wire
// form: for Params it snapshots the global parameters at send time, into
// whatever buffer its transport allows.
type Reply struct {
	To    int
	Kind  Kind      // Params, Ack or PushReply
	Clock int       // the request's clock; for Ack the minimum worker clock
	Vec   []float32 // PushReply only
}

// Proto selects the protocol a shard speaks.
type Proto int

const (
	BSP     Proto = iota + 1 // synchronous rounds, one averaged step each
	ASP                      // apply every gradient on arrival, reply at once
	SSP                      // accumulate updates; clock service with a staleness gate
	Elastic                  // EASGD's symmetric elastic move (also AdaComm)
)

// Rule is what a shard needs to know of the run.
type Rule struct {
	Proto   Proto
	Workers int
	LR      opt.Schedule // BSP, ASP: the step size of iteration Clock

	// BSP. A round closes on its Senders-th contribution — one per member
	// when 0; local aggregation sends one per machine — and steps with the
	// sum divided by the member count. Members returns how many workers run
	// a 1-based round (nil = all Workers, every round); rounds nobody runs
	// are skipped. Sparse says gradients arrive as DGC steps, so no dense
	// step closes a round.
	Iters   int
	Senders int
	Members func(round int) int
	Sparse  bool

	// ASP: divide a gradient's step by 1 + the global updates its sender's
	// parameters have missed.
	Damping bool

	// SSP. Clock makes this shard the clock service (one per run): it tracks
	// worker clocks, acks every update with the minimum and parks pulls that
	// are more than Staleness ahead of it. Alive reports whether a worker
	// counts towards the minimum right now (nil = every worker does).
	Staleness int
	Clock     bool
	Alive     func(worker int) bool

	// Elastic: EASGD's moving rate α.
	Alpha float32
}

// Shard is what one parameter-server shard decides: which update an arriving
// message becomes and which replies it triggers. It has no clock and no
// transport — a driver (the simulator's shard process, the live server's
// frame loop) feeds it messages in arrival order and sends what it names —
// so both runtimes' parameters come from these lines.
//
// Fold-order contract: a BSP round sums its contributions in ascending sender
// rank whatever order they arrived in. Float addition is order-sensitive, so
// this is what lets a wall-clock run reproduce the simulator bit for bit.
// Replies are named in arrival order, which is what virtual time depends on.
//
// A Shard may keep a message's vectors until it has returned the reply to
// that message's sender (an open BSP round folds at close); messages that get
// no reply are done with when Handle returns. The returned slice is reused by
// the next call.
type Shard struct {
	g      *Global
	ranges []Range
	rule   Rule
	out    []Reply

	// BSP: the open 1-based round (0 = all closed), its member count, the
	// contributions so far and the dense aggregate.
	round   int
	members int
	msgs    []Msg
	agg     []float32

	// ASP staleness damping: global update count, and its value when each
	// worker last received parameters.
	updates  int
	pulledAt []int

	// SSP clock service.
	clocks []int
	parked []pull
}

type pull struct{ worker, clock int }

// NewShard returns the shard that owns ranges of g.
func NewShard(g *Global, ranges []Range, rule Rule) *Shard {
	s := &Shard{g: g, ranges: ranges, rule: rule}
	switch rule.Proto {
	case BSP:
		s.openRound()
	case ASP:
		s.pulledAt = make([]int, rule.Workers)
	case SSP:
		s.clocks = make([]int, rule.Workers)
	}
	return s
}

// Round returns the open BSP round, 1-based; 0 when every round has closed
// and for the other protocols.
func (s *Shard) Round() int { return s.round }

// Done reports whether a BSP shard has closed its last round. The other
// protocols serve until their driver stops.
func (s *Shard) Done() bool { return s.rule.Proto == BSP && s.round == 0 }

// Waiting reports whether the shard holds something Expire could let go: an
// open BSP round, parked SSP pulls.
func (s *Shard) Waiting() bool { return s.round > 0 || len(s.parked) > 0 }

// Handle takes the next message in arrival order and returns the replies it
// triggers. An error means the message does not belong to the protocol; the
// shard's state is then unchanged.
func (s *Shard) Handle(m Msg) ([]Reply, error) {
	if m.From < 0 || m.From >= s.rule.Workers {
		return nil, fmt.Errorf("ps: message from rank %d of %d", m.From, s.rule.Workers)
	}
	s.out = s.out[:0]
	grad := m.Kind == Grad || m.Kind == SparseGrad
	switch {
	case s.rule.Proto == BSP && grad && s.round > 0:
		s.msgs = append(s.msgs, m)
		if want := s.rule.Senders; len(s.msgs) == want || want == 0 && len(s.msgs) == s.members {
			s.closeRound()
		}
	case s.rule.Proto == ASP && grad:
		lr := s.rule.LR.At(m.Clock - 1)
		if s.rule.Damping {
			lr /= float32(1 + s.updates - s.pulledAt[m.From])
		}
		s.updates++
		s.pulledAt[m.From] = s.updates
		if m.Kind == SparseGrad {
			s.g.ApplySparse(m.Idx, m.Vec, 1, lr)
		} else {
			s.g.ApplyGrad(s.ranges, m.Vec, 1, lr)
		}
		s.out = append(s.out, Reply{To: m.From, Kind: Params, Clock: m.Clock})
	case s.rule.Proto == SSP && grad:
		// Petuum-style SSP: workers send their locally applied *updates*;
		// the PS is an adder.
		if m.Kind == SparseGrad {
			s.g.ApplySparse(m.Idx, m.Vec, -1, 1)
		} else {
			s.g.AddDelta(s.ranges, m.Vec)
		}
		if s.rule.Clock {
			s.clocks[m.From] = m.Clock
			s.out = append(s.out, Reply{To: m.From, Kind: Ack, Clock: s.minClock()})
			s.release()
		}
	case s.rule.Proto == SSP && m.Kind == Pull:
		if s.rule.Clock && s.minClock() < m.Clock-s.rule.Staleness {
			s.parked = append(s.parked, pull{m.From, m.Clock})
		} else {
			s.out = append(s.out, Reply{To: m.From, Kind: Params, Clock: m.Clock})
		}
	case s.rule.Proto == Elastic && m.Kind == Push:
		// The move mutates m.Vec in place over this shard's ranges; the
		// reply carries the worker's updated parameters, not the global ones.
		s.g.ElasticUpdate(s.ranges, m.Vec, s.rule.Alpha)
		s.out = append(s.out, Reply{To: m.From, Kind: PushReply, Clock: m.Clock, Vec: m.Vec})
	default:
		return nil, fmt.Errorf("ps: unexpected kind %d from rank %d (protocol %d, round %d)",
			m.Kind, m.From, s.rule.Proto, s.round)
	}
	return s.out, nil
}

// Expire is the driver's "waited long enough": an open BSP round closes with
// whoever arrived, and parked SSP pulls are checked against the membership
// again. moved reports whether anything changed.
func (s *Shard) Expire() (out []Reply, moved bool) {
	s.out = s.out[:0]
	if s.round > 0 {
		s.closeRound()
		return s.out, true
	}
	s.release()
	return s.out, len(s.out) > 0
}

// openRound advances to the next round somebody runs.
func (s *Shard) openRound() {
	for s.round++; s.round <= s.rule.Iters; s.round++ {
		s.members = s.rule.Workers
		if s.rule.Members != nil {
			s.members = s.rule.Members(s.round)
		}
		if s.members > 0 {
			return
		}
	}
	s.round = 0
}

// closeRound folds the round's contributions in ascending sender rank, takes
// one step and names the senders in arrival order.
func (s *Shard) closeRound() {
	scale := 1 / float32(s.members)
	lr := s.rule.LR.At(s.round - 1)
	for _, m := range s.msgs {
		s.out = append(s.out, Reply{To: m.From, Kind: Params, Clock: m.Clock})
	}
	sort.Slice(s.msgs, func(i, j int) bool { return s.msgs[i].From < s.msgs[j].From })
	if s.g.MathOn() && !s.rule.Sparse {
		if s.agg == nil {
			s.agg = make([]float32, len(s.g.Params))
		}
		for _, r := range s.ranges {
			clear(s.agg[r.Off : r.Off+r.Len])
		}
	}
	for _, m := range s.msgs {
		if m.Kind == SparseGrad {
			// DGC: plain sparse step per message; linearity makes
			// scale-per-message equal to one aggregated step.
			s.g.ApplySparse(m.Idx, m.Vec, scale, lr)
		} else if s.agg != nil && m.Vec != nil {
			for _, r := range s.ranges {
				dst, src := s.agg[r.Off:r.Off+r.Len], m.Vec[r.Off:r.Off+r.Len]
				for i, v := range src {
					dst[i] += v
				}
			}
		}
	}
	if !s.rule.Sparse {
		s.g.ApplyGrad(s.ranges, s.agg, scale, lr)
	}
	clear(s.msgs) // drop the vector references
	s.msgs = s.msgs[:0]
	s.openRound()
}

// minClock is the slowest counted worker's clock.
func (s *Shard) minClock() int {
	m := -1
	for w, c := range s.clocks {
		if s.rule.Alive != nil && !s.rule.Alive(w) {
			continue
		}
		if m < 0 || c < m {
			m = c
		}
	}
	if m < 0 {
		m = s.clocks[0]
	}
	return m
}

// release answers exactly the parked pulls whose bound the minimum clock now
// meets, oldest first.
func (s *Shard) release() {
	if len(s.parked) == 0 {
		return
	}
	mc := s.minClock()
	keep := s.parked[:0]
	for _, pk := range s.parked {
		if mc >= pk.clock-s.rule.Staleness {
			s.out = append(s.out, Reply{To: pk.worker, Kind: Params, Clock: pk.clock})
		} else {
			keep = append(keep, pk)
		}
	}
	s.parked = keep
}

// Bound is the worker's half of SSP: when to refresh the locally cached
// parameters from the PS. A worker must pull when its cache is more than s
// clocks old (Petuum's bounded-staleness read — what gives SSP its
// (1 + 1/(s+1))·MN communication complexity) and whenever it runs more than
// s clocks ahead of the slowest worker it has heard of.
type Bound struct {
	S int // the staleness threshold s

	lastMin      int // highest minimum clock an ack has carried
	sinceRefresh int // iterations since the last pull
}

// Ack folds an ack's minimum clock in.
func (b *Bound) Ack(minClock int) {
	if minClock > b.lastMin {
		b.lastMin = minClock
	}
}

// Stale is asked once per iteration, after the update was sent, and reports
// whether the worker must pull before going on.
func (b *Bound) Stale(it int) bool {
	b.sinceRefresh++
	return b.sinceRefresh > b.S || it-b.lastMin > b.S
}

// Refreshed records that the pull of iteration it was answered (or given up
// on). The clock service only answers when the bound holds, so the minimum
// is at least it − s.
func (b *Bound) Refreshed(it int) {
	b.sinceRefresh = 0
	if b.lastMin < it-b.S {
		b.lastMin = it - b.S
	}
}
