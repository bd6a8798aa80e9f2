// Package fault is a deterministic fault-schedule engine for the simulated
// cluster: worker crashes (with optional restart), transient compute
// slowdowns beyond the baseline jitter, link bandwidth degradation,
// probabilistic message drop, and machine-level network partitions.
//
// Every fault is declared up front in a Schedule and evaluated against the
// discrete-event engine's virtual clock, so a given (Config, Schedule, seed)
// triple always produces the identical run — the same bit-for-bit
// reproducibility guarantee the rest of the simulator makes.
//
// Crashes are iteration-quantized: a crash at virtual time t kills the
// worker at the boundary of nominal iteration 1+floor(t/meanIterSec) (or at
// the explicit AtIter). Quantizing to iteration boundaries is what lets
// every process in a synchronous algorithm — PS shards counting senders,
// AllReduce rings choosing members — agree on the barrier membership of any
// round by evaluating the same pure function, without exchanging any
// liveness messages. Network faults (drop, degrade, partition) and
// slowdowns use exact virtual-time windows instead; they need no global
// agreement.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"disttrain/internal/rng"
)

// Kind names a fault type.
type Kind string

// The five fault kinds.
const (
	// Crash kills a worker at an iteration boundary; Restart > 0 revives it
	// after that many seconds.
	Crash Kind = "crash"
	// Slow multiplies a worker's compute time by Factor over a time window.
	Slow Kind = "slow"
	// Degrade multiplies the wire time of inter-machine transfers touching
	// Machine (-1 = every machine) by Factor over a time window.
	Degrade Kind = "degrade"
	// Drop loses each inter-machine message touching Machine (-1 = all) with
	// probability Prob over a time window.
	Drop Kind = "drop"
	// Partition cuts the machines listed in Machines off from the rest over
	// a time window; messages across the cut are lost.
	Partition Kind = "partition"
)

// Event is one scheduled fault.
type Event struct {
	Kind Kind `json:"kind"`
	// At is the virtual time (seconds) the fault begins.
	At float64 `json:"at"`
	// AtIter pins a crash to a 1-based iteration boundary, overriding At.
	AtIter int `json:"at_iter,omitempty"`
	// Duration bounds slow/degrade/drop/partition windows; <= 0 means the
	// rest of the run.
	Duration float64 `json:"duration,omitempty"`
	// Worker targets crash and slow events.
	Worker int `json:"worker,omitempty"`
	// Machine targets degrade and drop events; -1 means every
	// inter-machine link (JSON authors must write -1 explicitly).
	Machine int `json:"machine,omitempty"`
	// Machines lists one side of a partition cut.
	Machines []int `json:"machines,omitempty"`
	// Restart revives a crashed worker after this many seconds; 0 = never.
	Restart float64 `json:"restart,omitempty"`
	// Factor is the compute (slow) or wire-time (degrade) multiplier.
	Factor float64 `json:"factor,omitempty"`
	// Prob is the per-message drop probability.
	Prob float64 `json:"prob,omitempty"`
}

// Schedule is a set of fault events; the zero value injects nothing.
type Schedule struct {
	Events []Event `json:"events"`
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// HasKind reports whether any event has the given kind.
func (s *Schedule) HasKind(k Kind) bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// Validate checks every event against the cluster shape.
func (s *Schedule) Validate(workers, machines int) error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if err := e.validate(workers, machines); err != nil {
			return fmt.Errorf("fault: event %d (%s): %w", i, e.Kind, err)
		}
	}
	return nil
}

func (e Event) validate(workers, machines int) error {
	if e.At < 0 {
		return fmt.Errorf("negative start time %v", e.At)
	}
	if e.Duration < 0 {
		return fmt.Errorf("negative duration %v", e.Duration)
	}
	switch e.Kind {
	case Crash:
		if e.Worker < 0 || e.Worker >= workers {
			return fmt.Errorf("worker %d of %d", e.Worker, workers)
		}
		if e.AtIter < 0 {
			return fmt.Errorf("negative AtIter %d", e.AtIter)
		}
		if e.Restart < 0 {
			return fmt.Errorf("negative restart delay %v", e.Restart)
		}
	case Slow:
		if e.Worker < 0 || e.Worker >= workers {
			return fmt.Errorf("worker %d of %d", e.Worker, workers)
		}
		if e.Factor <= 0 {
			return fmt.Errorf("factor %v (need > 0)", e.Factor)
		}
	case Degrade:
		if e.Machine < -1 || e.Machine >= machines {
			return fmt.Errorf("machine %d of %d", e.Machine, machines)
		}
		if e.Factor <= 0 {
			return fmt.Errorf("factor %v (need > 0)", e.Factor)
		}
	case Drop:
		if e.Machine < -1 || e.Machine >= machines {
			return fmt.Errorf("machine %d of %d", e.Machine, machines)
		}
		if e.Prob <= 0 || e.Prob > 1 {
			return fmt.Errorf("drop probability %v (need 0 < p <= 1)", e.Prob)
		}
	case Partition:
		if len(e.Machines) == 0 {
			return fmt.Errorf("empty machine list")
		}
		if len(e.Machines) >= machines {
			return fmt.Errorf("partition side lists %d of %d machines (need a proper subset)", len(e.Machines), machines)
		}
		for _, m := range e.Machines {
			if m < 0 || m >= machines {
				return fmt.Errorf("machine %d of %d", m, machines)
			}
		}
	default:
		return fmt.Errorf("unknown kind %q", e.Kind)
	}
	return nil
}

// ParseSpec parses the compact CLI schedule syntax: events separated by
// ';', each `kind@time[:field...]` with fields separated by ':'.
//
//	crash@iter20:w3:restart=5     crash worker 3 at iteration 20, back 5 s later
//	crash@2.5:w0                  kill worker 0 for good at t=2.5 s
//	slow@10:w2:x4:for=30          4x compute slowdown on worker 2 for 30 s
//	degrade@10:m1:x8:for=30       8x wire-time on machine 1's links for 30 s
//	drop@10:p=0.05:for=60         drop 5 % of all cross-machine messages
//	partition@10:m0,1:for=30      cut machines {0,1} off for 30 s
func ParseSpec(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e, err := parseEvent(part)
		if err != nil {
			return nil, fmt.Errorf("fault: %q: %w", part, err)
		}
		s.Events = append(s.Events, e)
	}
	if len(s.Events) == 0 {
		return nil, fmt.Errorf("fault: empty schedule spec %q", spec)
	}
	return s, nil
}

func parseEvent(spec string) (Event, error) {
	e := Event{Machine: -1}
	fields := strings.Split(spec, ":")
	head := strings.SplitN(fields[0], "@", 2)
	if len(head) != 2 {
		return e, fmt.Errorf("want kind@time")
	}
	e.Kind = Kind(head[0])
	if it, ok := strings.CutPrefix(head[1], "iter"); ok {
		n, err := strconv.Atoi(it)
		if err != nil {
			return e, fmt.Errorf("iteration %q: %w", it, err)
		}
		e.AtIter = n
	} else {
		t, err := strconv.ParseFloat(head[1], 64)
		if err != nil {
			return e, fmt.Errorf("time %q: %w", head[1], err)
		}
		e.At = t
	}
	for _, f := range fields[1:] {
		switch {
		case strings.HasPrefix(f, "w"):
			n, err := strconv.Atoi(f[1:])
			if err != nil {
				return e, fmt.Errorf("worker %q: %w", f, err)
			}
			e.Worker = n
		case strings.HasPrefix(f, "m"):
			for _, ms := range strings.Split(f[1:], ",") {
				n, err := strconv.Atoi(ms)
				if err != nil {
					return e, fmt.Errorf("machine %q: %w", f, err)
				}
				e.Machines = append(e.Machines, n)
			}
			e.Machine = e.Machines[0]
			if e.Kind != Partition {
				e.Machines = nil
			}
		case strings.HasPrefix(f, "x"):
			v, err := strconv.ParseFloat(f[1:], 64)
			if err != nil {
				return e, fmt.Errorf("factor %q: %w", f, err)
			}
			e.Factor = v
		case strings.HasPrefix(f, "for="):
			v, err := strconv.ParseFloat(f[4:], 64)
			if err != nil {
				return e, fmt.Errorf("duration %q: %w", f, err)
			}
			e.Duration = v
		case strings.HasPrefix(f, "restart="):
			v, err := strconv.ParseFloat(f[8:], 64)
			if err != nil {
				return e, fmt.Errorf("restart %q: %w", f, err)
			}
			e.Restart = v
		case strings.HasPrefix(f, "p="):
			v, err := strconv.ParseFloat(f[2:], 64)
			if err != nil {
				return e, fmt.Errorf("probability %q: %w", f, err)
			}
			e.Prob = v
		default:
			return e, fmt.Errorf("unknown field %q", f)
		}
	}
	return e, nil
}

// String renders the event back in the compact spec syntax.
func (e Event) String() string {
	var b strings.Builder
	if e.AtIter > 0 {
		fmt.Fprintf(&b, "%s@iter%d", e.Kind, e.AtIter)
	} else {
		fmt.Fprintf(&b, "%s@%g", e.Kind, e.At)
	}
	switch e.Kind {
	case Crash:
		fmt.Fprintf(&b, ":w%d", e.Worker)
		if e.Restart > 0 {
			fmt.Fprintf(&b, ":restart=%g", e.Restart)
		}
	case Slow:
		fmt.Fprintf(&b, ":w%d:x%g", e.Worker, e.Factor)
	case Degrade:
		if e.Machine >= 0 {
			fmt.Fprintf(&b, ":m%d", e.Machine)
		}
		fmt.Fprintf(&b, ":x%g", e.Factor)
	case Drop:
		if e.Machine >= 0 {
			fmt.Fprintf(&b, ":m%d", e.Machine)
		}
		fmt.Fprintf(&b, ":p=%g", e.Prob)
	case Partition:
		// An empty cut renders without the field: ":m" alone is not valid
		// spec syntax (Validate rejects the event either way).
		if len(e.Machines) > 0 {
			b.WriteString(":m")
			for i, m := range e.Machines {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", m)
			}
		}
	}
	if e.Duration > 0 {
		fmt.Fprintf(&b, ":for=%g", e.Duration)
	}
	return b.String()
}

// crashSpan is one dead interval in iteration space: the worker is dead for
// iterations [die, resume); resume == 0 means forever.
type crashSpan struct {
	die    int
	resume int
	delay  float64
}

// window is a time-bounded fault effect.
type window struct {
	from, to float64 // to == +Inf for unbounded
	worker   int
	machine  int
	factor   float64
	prob     float64
	side     map[int]bool // partition side
}

func (w window) contains(t float64) bool { return t >= w.from && t < w.to }

// Injector evaluates a validated Schedule against the virtual clock. It is
// a pure lookup structure except for the drop RNG, which is consumed once
// per matching cross-machine send in deterministic engine order. It
// satisfies simnet's FaultModel interface.
type Injector struct {
	workers, machines int
	mean              float64
	crashes           [][]crashSpan // per worker, sorted by die
	slows             []window
	degrades          []window
	drops             []window
	parts             []window
	dropRNG           *rng.RNG
}

// NewInjector compiles a schedule. meanIterSec is the nominal (jitter-free)
// iteration time used to quantize crash times to iteration boundaries; seed
// feeds the message-drop RNG stream.
func NewInjector(s *Schedule, workers, machines int, meanIterSec float64, seed uint64) *Injector {
	in := &Injector{
		workers:  workers,
		machines: machines,
		mean:     meanIterSec,
		crashes:  make([][]crashSpan, workers),
		dropRNG:  rng.New(seed).Split(5), // labels 1-4 are taken by core
	}
	for _, e := range s.Events {
		to := math.Inf(1)
		if e.Duration > 0 {
			to = e.At + e.Duration
		}
		switch e.Kind {
		case Crash:
			die := e.AtIter
			if die == 0 {
				die = 1 + int(math.Floor(e.At/meanIterSec))
			}
			sp := crashSpan{die: die, delay: e.Restart}
			if e.Restart > 0 {
				sp.resume = die + int(math.Max(1, math.Ceil(e.Restart/meanIterSec)))
			}
			in.crashes[e.Worker] = append(in.crashes[e.Worker], sp)
		case Slow:
			in.slows = append(in.slows, window{from: e.At, to: to, worker: e.Worker, factor: e.Factor})
		case Degrade:
			in.degrades = append(in.degrades, window{from: e.At, to: to, machine: e.Machine, factor: e.Factor})
		case Drop:
			in.drops = append(in.drops, window{from: e.At, to: to, machine: e.Machine, prob: e.Prob})
		case Partition:
			side := make(map[int]bool, len(e.Machines))
			for _, m := range e.Machines {
				side[m] = true
			}
			in.parts = append(in.parts, window{from: e.At, to: to, side: side})
		}
	}
	for w := range in.crashes {
		sort.Slice(in.crashes[w], func(i, j int) bool { return in.crashes[w][i].die < in.crashes[w][j].die })
	}
	return in
}

// AliveAtIter reports whether worker w runs its 1-based iteration it. It is
// a pure function of the schedule, so every process in a run can evaluate
// the barrier membership of any round consistently.
func (in *Injector) AliveAtIter(w, it int) bool {
	for _, sp := range in.crashes[w] {
		if it >= sp.die && (sp.resume == 0 || it < sp.resume) {
			return false
		}
	}
	return true
}

// NextAliveIter returns the first iteration >= it that worker w runs, or 0
// if it never runs again.
func (in *Injector) NextAliveIter(w, it int) int {
	for {
		dead := false
		for _, sp := range in.crashes[w] {
			if it >= sp.die && sp.resume == 0 {
				return 0
			}
			if it >= sp.die && it < sp.resume {
				dead = true
				if sp.resume > it {
					it = sp.resume
				}
			}
		}
		if !dead {
			return it
		}
	}
}

// AliveNodes returns the workers that run iteration it, ascending, and w's
// position among them (-1 if w itself is dead): the elastic barrier
// membership. Worker w's node ID is w on the simulated network and its mesh
// rank is w on the live one, so both runtimes build a round's ring from this
// one list.
func (in *Injector) AliveNodes(it, w int) (nodes []int, self int) {
	self = -1
	nodes = make([]int, 0, in.workers)
	for ww := 0; ww < in.workers; ww++ {
		if in.AliveAtIter(ww, it) {
			if ww == w {
				self = len(nodes)
			}
			nodes = append(nodes, ww)
		}
	}
	return nodes, self
}

// AliveCount returns how many workers run iteration it — the elastic BSP
// barrier width.
func (in *Injector) AliveCount(it int) int {
	n := 0
	for w := 0; w < in.workers; w++ {
		if in.AliveAtIter(w, it) {
			n++
		}
	}
	return n
}

// RestartDelay returns the restart sleep for a worker dying at iteration it
// (the delay of the latest crash span covering it).
func (in *Injector) RestartDelay(w, it int) float64 {
	var d float64
	for _, sp := range in.crashes[w] {
		if it >= sp.die && (sp.resume == 0 || it < sp.resume) {
			d = sp.delay
		}
	}
	return d
}

// DeadAt reports whether worker w is inside a dead window at virtual time
// t, judged on the nominal iteration clock.
func (in *Injector) DeadAt(w int, t float64) bool {
	return !in.AliveAtIter(w, 1+int(math.Floor(t/in.mean)))
}

// ComputeMult returns the compute-time multiplier for worker w at time t
// (the product of all active slow windows; 1 when none).
func (in *Injector) ComputeMult(w int, t float64) float64 {
	m := 1.0
	for _, win := range in.slows {
		if win.worker == w && win.contains(t) {
			m *= win.factor
		}
	}
	return m
}

// Partitioned reports whether machines m1 and m2 are on opposite sides of
// an active partition at time t. Pure (no RNG).
func (in *Injector) Partitioned(t float64, m1, m2 int) bool {
	for _, win := range in.parts {
		if win.contains(t) && win.side[m1] != win.side[m2] {
			return true
		}
	}
	return false
}

// Cut reports whether a message sent now from machine `from` to machine
// `to` is lost — either partitioned away or probabilistically dropped. The
// drop RNG is consumed here, once per matching send, in engine order.
func (in *Injector) Cut(now float64, from, to int) bool {
	if from == to {
		return false
	}
	if in.Partitioned(now, from, to) {
		return true
	}
	for _, win := range in.drops {
		if !win.contains(now) {
			continue
		}
		if win.machine >= 0 && win.machine != from && win.machine != to {
			continue
		}
		if in.dropRNG.Bernoulli(win.prob) {
			return true
		}
	}
	return false
}

// Slow returns the wire-time multiplier for a transfer from machine `from`
// to machine `to` at time t (product of active degrade windows; 1 = none).
func (in *Injector) Slow(t float64, from, to int) float64 {
	m := 1.0
	for _, win := range in.degrades {
		if !win.contains(t) {
			continue
		}
		if win.machine >= 0 && win.machine != from && win.machine != to {
			continue
		}
		m *= win.factor
	}
	return m
}

// MeanIterSec returns the nominal iteration time the injector quantizes
// crashes with.
func (in *Injector) MeanIterSec() float64 { return in.mean }
