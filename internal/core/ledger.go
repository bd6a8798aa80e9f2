package core

import (
	"sync"

	"disttrain/internal/metrics"
	"disttrain/internal/trace"
)

// Step is an Env method that takes time: the name of its span, the paper
// phase (Fig. 3) its time beyond the wire counts toward, and the span's
// category. The steps below are the one vocabulary both runtimes book in.
type Step struct {
	name  string
	phase metrics.Phase
	cat   string
}

var (
	StepCompute   = Step{"compute", metrics.Compute, "compute"}
	StepAllReduce = Step{"allreduce", metrics.GlobalAgg, "comm"}
	StepGatherSum = Step{"gathersum", metrics.LocalAgg, "comm"}
	StepBcast     = Step{"bcast", metrics.LocalAgg, "comm"}
	StepExchange  = Step{"exchange", metrics.GlobalAgg, "comm"}
	StepUpdate    = Step{"update", metrics.GlobalAgg, "comm"}
	StepToPeer    = Step{"topeer", metrics.GlobalAgg, "comm"}
	StepSwap      = Step{"swap", metrics.GlobalAgg, "comm"}
	StepAnswer    = Step{"answer", metrics.GlobalAgg, "comm"}
	StepNeighbors = Step{"neighbors", metrics.GlobalAgg, "comm"}
)

// ThreadTid offsets the trace track of a worker's second thread, whose steps
// overlap the worker's own: tid ThreadTid + rank.
const ThreadTid = 1000

// Ledger books one worker's steps, timed on its runtime's clock (virtual or
// wall): their seconds into the breakdown the worker's threads share and,
// given a tracer, one span each on the thread's track.
type Ledger struct {
	mu       *sync.Mutex
	bd       *metrics.Breakdown
	tr       *trace.Tracer
	now      func() float64
	pid, tid int
}

// NewLedger books into bd, reads the time from now and traces on track
// (pid, tid) of tr (nil: no spans).
func NewLedger(bd *metrics.Breakdown, tr *trace.Tracer, now func() float64, pid, tid int) *Ledger {
	return &Ledger{new(sync.Mutex), bd, tr, now, pid, tid}
}

// Thread is the ledger of the worker's second thread.
func (l *Ledger) Thread() *Ledger { return &Ledger{l.mu, l.bd, l.tr, l.now, l.pid, l.tid + ThreadTid} }

// Now is the runtime's clock, in seconds: the time steps are booked in.
func (l *Ledger) Now() float64 { return l.now() }

// Book closes step s, run from start to end. Its wire seconds — what only the
// runtime can measure — are network time, the rest is the step's phase's.
func (l *Ledger) Book(s Step, start, end, wire float64) {
	l.mu.Lock()
	l.bd.Add(metrics.Network, wire)
	l.bd.Add(s.phase, end-start-wire)
	l.mu.Unlock()
	l.span(s, start, end)
}

// Split closes step s like Book, for a wait that splits at at: local
// aggregation until then, the global round after — a broadcast member waiting
// for the parameters its machine leader, done gathering at at, fetches from
// the parameter server. The split is clamped to the wait beyond the wire, and
// a wait the wire covers books only network time.
func (l *Ledger) Split(s Step, start, end, wire, at float64) {
	l.mu.Lock()
	l.bd.Add(metrics.Network, wire)
	if rest := end - start - wire; rest > 0 {
		local := min(max(at-start, 0), rest)
		l.bd.Add(metrics.LocalAgg, local)
		l.bd.Add(metrics.GlobalAgg, rest-local)
	}
	l.mu.Unlock()
	l.span(s, start, end)
}

// span records s on the ledger's track.
func (l *Ledger) span(s Step, start, end float64) {
	if l.tr != nil {
		l.tr.Span(s.name, s.cat, start, end, l.pid, l.tid)
	}
}

// Breakdown returns what the ledger has booked so far.
func (l *Ledger) Breakdown() metrics.Breakdown {
	l.mu.Lock()
	defer l.mu.Unlock()
	return *l.bd
}
