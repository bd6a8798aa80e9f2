// Package simnet models the cluster network on top of the discrete-event
// engine: point-to-point messages between nodes with per-machine link
// serialization, latency, and byte accounting.
//
// The model is store-and-forward FIFO queueing: a message first occupies
// the sender machine's egress link for bytes/bandwidth seconds (queuing
// behind earlier transmissions), crosses the wire after the fixed latency,
// then occupies the receiver machine's ingress link. Messages between
// workers on one machine instead occupy that machine's internal bus. This
// first-order model is what produces the paper's headline performance
// effects: the parameter-server ingress bottleneck at 10 Gbps, the benefit
// of local aggregation and sharding, and AD-PSGD's smooth link utilization.
package simnet

import (
	"fmt"

	"disttrain/internal/cluster"
	"disttrain/internal/des"
	"disttrain/internal/trace"
)

// Msg is one network message: the endpoints, the sender's kind tag (a small
// non-negative integer), and Bytes, the wire size the links are booked for —
// in cost-only experiments the full-size paper model's, whatever the payload. Body is the sending
// protocol's own message (nil when there is none); the network never reads
// it, and Send hands it to the receiver as it was sent. Send fills in
// WireSec.
type Msg struct {
	From, To int
	Kind     int
	Bytes    int64
	// WireSec is the transfer time the message experiences, for metrics
	// attribution.
	WireSec des.Time
	Body    any
}

// link is a FIFO resource: a transmission books [start, start+dur) where
// start is no earlier than the link's previous completion.
type link struct {
	freeAt  des.Time
	busySec des.Time
}

// reserve books dur seconds on the link starting at or after t and returns
// the completion time.
func (l *link) reserve(t des.Time, dur des.Time) des.Time {
	start := t
	if l.freeAt > start {
		start = l.freeAt
	}
	l.freeAt = start + dur
	l.busySec += dur
	return start + dur
}

// Node is a network endpoint with an inbox.
type Node struct {
	ID      int
	Machine int
	Inbox   *des.Queue[Msg]
}

// Stats accumulates traffic counters.
type Stats struct {
	// TotalBytes is the sum of Msg.Bytes over all sends.
	TotalBytes int64
	// TotalMsgs is the number of messages sent.
	TotalMsgs int64
	// BytesByKind maps Msg.Kind to bytes.
	BytesByKind map[int]int64
	// CrossMachineBytes counts only inter-machine traffic.
	CrossMachineBytes int64
	// DroppedMsgs and DroppedBytes count messages lost to fault injection
	// (partitions and probabilistic drop); they are not included in
	// TotalBytes/TotalMsgs.
	DroppedMsgs  int64
	DroppedBytes int64
	// IngressBusySec and EgressBusySec are the per-machine cumulative
	// seconds each NIC direction spent transmitting — divide by elapsed
	// virtual time for utilization. A centralized algorithm concentrates
	// busy time on the PS machines; decentralized traffic spreads evenly
	// (the paper's "less bursty" observation about AD-PSGD).
	IngressBusySec []float64
	EgressBusySec  []float64
}

// UtilizationSpread returns (max − min)/max of per-machine total NIC busy
// seconds — 0 for perfectly even load, →1 when one machine carries all
// traffic. Returns 0 when no machine moved any bytes.
func (s Stats) UtilizationSpread() float64 {
	if len(s.IngressBusySec) == 0 {
		return 0
	}
	minV, maxV := -1.0, 0.0
	for m := range s.IngressBusySec {
		tot := s.IngressBusySec[m] + s.EgressBusySec[m]
		if tot > maxV {
			maxV = tot
		}
		if minV < 0 || tot < minV {
			minV = tot
		}
	}
	if maxV == 0 {
		return 0
	}
	return (maxV - minV) / maxV
}

// Net is the simulated network.
type Net struct {
	eng   *des.Engine
	cfg   cluster.Config
	nodes []*Node

	egress  []link // per machine
	ingress []link // per machine
	bus     []link // per machine, intra-machine transfers

	// stats holds every counter but BytesByKind, which Stats builds from
	// byKind: the bytes sent of each kind, indexed by kind.
	stats  Stats
	byKind []kindBytes
	tracer *trace.Tracer
	faults FaultModel
}

// kindBytes is one kind's byte count, and whether any message of the kind
// was sent (a zero-byte message still puts its kind in BytesByKind).
type kindBytes struct {
	bytes int64
	sent  bool
}

// FaultModel lets a fault injector intercept inter-machine transfers. Both
// hooks are consulted once per cross-machine Send, in deterministic engine
// order (Cut may consume RNG state; Slow must be pure).
type FaultModel interface {
	// Cut reports whether a message sent now from machine `from` to
	// machine `to` is lost.
	Cut(now float64, from, to int) bool
	// Slow returns a wire-time multiplier (>= 1 in practice) for the
	// transfer.
	Slow(now float64, from, to int) float64
}

// SetFaults attaches a fault model; nil detaches it.
func (n *Net) SetFaults(f FaultModel) { n.faults = f }

// SetTracer attaches a Chrome-trace recorder; every subsequent message is
// recorded as a span on its destination machine's ingress track.
func (n *Net) SetTracer(t *trace.Tracer) { n.tracer = t }

// New builds a network for the cluster. Nodes are created via AddNode.
func New(eng *des.Engine, cfg cluster.Config) *Net {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Net{
		eng:     eng,
		cfg:     cfg,
		egress:  make([]link, cfg.Machines),
		ingress: make([]link, cfg.Machines),
		bus:     make([]link, cfg.Machines),
	}
}

// AddNode registers a new endpoint on the given machine and returns it.
// Node IDs are assigned densely in registration order.
func (n *Net) AddNode(machine int) *Node {
	if machine < 0 || machine >= n.cfg.Machines {
		panic(fmt.Sprintf("simnet: machine %d of %d", machine, n.cfg.Machines))
	}
	node := &Node{ID: len(n.nodes), Machine: machine, Inbox: des.NewQueue[Msg](n.eng)}
	n.nodes = append(n.nodes, node)
	return node
}

// Node returns endpoint id.
func (n *Net) Node(id int) *Node { return n.nodes[id] }

// Stats returns a copy of the traffic counters, including the per-machine
// NIC busy times as of now.
func (n *Net) Stats() Stats {
	s := n.stats
	s.BytesByKind = map[int]int64{}
	for k, b := range n.byKind {
		if b.sent {
			s.BytesByKind[k] = b.bytes
		}
	}
	s.IngressBusySec = make([]float64, n.cfg.Machines)
	s.EgressBusySec = make([]float64, n.cfg.Machines)
	for m := 0; m < n.cfg.Machines; m++ {
		s.IngressBusySec[m] = n.ingress[m].busySec
		s.EgressBusySec[m] = n.egress[m].busySec
	}
	return s
}

// Send transmits msg (msg.From/To must be node IDs) and schedules delivery
// into the destination inbox. It never blocks the caller; the cost is paid
// in virtual time on the links. Returns the wire time (serialization +
// latency) the message will experience, excluding queueing it causes later
// messages.
func (n *Net) Send(msg Msg) des.Time {
	src := n.nodes[msg.From]
	dst := n.nodes[msg.To]
	now := n.eng.Now()

	if n.faults != nil && src.Machine != dst.Machine && n.faults.Cut(now, src.Machine, dst.Machine) {
		n.stats.DroppedMsgs++
		n.stats.DroppedBytes += msg.Bytes
		if n.tracer != nil {
			n.tracer.Span(fmt.Sprintf("drop k%d %s", msg.Kind, byteLabel(msg.Bytes)),
				"fault", now, now, dst.Machine, 1000+msg.To)
		}
		return 0
	}

	n.stats.TotalBytes += msg.Bytes
	n.stats.TotalMsgs++
	if msg.Kind >= len(n.byKind) {
		n.byKind = append(n.byKind, make([]kindBytes, msg.Kind+1-len(n.byKind))...)
	}
	n.byKind[msg.Kind].bytes += msg.Bytes
	n.byKind[msg.Kind].sent = true

	var arrive des.Time
	if src.Machine == dst.Machine {
		dur := des.Time(float64(msg.Bytes) / n.cfg.IntraBytesPerSec)
		arrive = n.bus[src.Machine].reserve(now, dur) + n.cfg.LatencySec
	} else {
		// Cut-through: the transfer occupies sender egress and receiver
		// ingress concurrently; completion is gated by whichever link is
		// more backed up. A single uncontended hop therefore serializes the
		// bytes once, while many senders targeting one machine (the PS
		// bottleneck) queue on its ingress.
		n.stats.CrossMachineBytes += msg.Bytes
		dur := des.Time(float64(msg.Bytes) / n.cfg.InterBytesPerSec)
		if n.faults != nil {
			if m := n.faults.Slow(now, src.Machine, dst.Machine); m != 1 {
				dur *= m
			}
		}
		outDone := n.egress[src.Machine].reserve(now, dur)
		inDone := n.ingress[dst.Machine].reserve(now, dur)
		arrive = outDone
		if inDone > arrive {
			arrive = inDone
		}
		arrive += n.cfg.LatencySec
	}
	msg.WireSec = arrive - now
	if n.tracer != nil {
		n.tracer.Span(fmt.Sprintf("msg k%d %s", msg.Kind, byteLabel(msg.Bytes)),
			"net", now, arrive, dst.Machine, 1000+msg.To)
	}
	dst.Inbox.PushAt(arrive, msg)
	return msg.WireSec
}

func byteLabel(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
