// Package metrics collects the measurements the paper reports: per-worker
// time breakdowns (computation, local aggregation, global aggregation,
// network), training throughput, traffic volume, and convergence traces
// (error versus epochs and versus virtual time).
package metrics

import (
	"fmt"
	"sort"
)

// Phase indexes the time-breakdown categories of the paper's Figure 3.
type Phase int

// Breakdown phases. Compute is gradient computation; LocalAgg is time spent
// in intra-machine aggregation (mostly waiting for same-machine workers);
// GlobalAgg is time blocked on the global aggregation step net of wire
// time; Network is wire/serialization time of the worker's own transfers.
const (
	Compute Phase = iota
	LocalAgg
	GlobalAgg
	Network
	numPhases
)

// String returns the phase label used in reports.
func (p Phase) String() string {
	switch p {
	case Compute:
		return "compute"
	case LocalAgg:
		return "local-agg"
	case GlobalAgg:
		return "global-agg"
	case Network:
		return "network"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Breakdown accumulates seconds per phase.
type Breakdown [numPhases]float64

// Add accumulates d seconds into phase p; negative d is clamped to zero
// (attribution arithmetic can produce tiny negatives).
func (b *Breakdown) Add(p Phase, d float64) {
	if d > 0 {
		b[p] += d
	}
}

// Total returns the summed seconds.
func (b *Breakdown) Total() float64 {
	var s float64
	for _, v := range b {
		s += v
	}
	return s
}

// Frac returns phase p's fraction of the total (0 if empty).
func (b *Breakdown) Frac(p Phase) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b[p] / t
}

// Merge adds other into b.
func (b *Breakdown) Merge(other Breakdown) {
	for i := range b {
		b[i] += other[i]
	}
}

// Worker is one worker's accounting.
type Worker struct {
	Breakdown Breakdown
	// Iters is the number of completed training iterations.
	Iters int
	// FinishedAt is the virtual time the worker completed its last
	// iteration.
	FinishedAt float64
}

// TracePoint is one convergence sample.
type TracePoint struct {
	// Iter is the global iteration (per-worker) at the sample.
	Iter int
	// Epoch is fractional epochs of the full dataset processed.
	Epoch float64
	// VirtualSec is the simulated wall-clock time.
	VirtualSec float64
	// TrainLoss is the recent mean training loss.
	TrainLoss float64
	// TestErr is 1 − test accuracy of the evaluated (global/average) model.
	TestErr float64
}

// FaultStats counts fault-injection events and their consequences over one
// run. All counters are zero when no fault schedule is attached.
type FaultStats struct {
	// Crashes is the number of worker deaths; Restarts how many came back.
	Crashes  int `json:"crashes,omitempty"`
	Restarts int `json:"restarts,omitempty"`
	// LostIters counts iterations skipped inside dead windows;
	// RecoveredIters counts iterations completed by workers after at least
	// one restart — the work the system salvaged.
	LostIters      int `json:"lost_iters,omitempty"`
	RecoveredIters int `json:"recovered_iters,omitempty"`
	// Timeouts counts fault-mode receive waits that gave up (a dropped or
	// partitioned message the protocol then worked around).
	Timeouts int `json:"timeouts,omitempty"`
	// Redraws counts gossip target draws made from a reduced (dead or
	// partitioned peers excluded) candidate set.
	Redraws int `json:"redraws,omitempty"`
	// SkippedExchanges counts gossip/exchange rounds abandoned because no
	// live reachable peer existed.
	SkippedExchanges int `json:"skipped_exchanges,omitempty"`
}

// Any reports whether any counter is non-zero.
func (f FaultStats) Any() bool { return f != FaultStats{} }

// Collector aggregates everything one experiment produces.
type Collector struct {
	Workers []Worker
	Trace   []TracePoint
	// Faults counts injected-fault events (zero without a fault schedule).
	Faults FaultStats
	// MaxSpread is the largest observed gap between the fastest and
	// slowest worker's iteration counters at any instant of the run — the
	// realized staleness. Synchronous algorithms keep it ≤ 1; SSP bounds it
	// by its threshold; ASP lets it float.
	MaxSpread int
}

// NewCollector creates a collector for n workers.
func NewCollector(n int) *Collector {
	return &Collector{Workers: make([]Worker, n)}
}

// AddTrace appends a convergence sample.
func (c *Collector) AddTrace(tp TracePoint) { c.Trace = append(c.Trace, tp) }

// TotalIters sums the iterations across workers.
func (c *Collector) TotalIters() int {
	n := 0
	for _, w := range c.Workers {
		n += w.Iters
	}
	return n
}

// MakespanSec returns the virtual time at which the slowest worker
// finished.
func (c *Collector) MakespanSec() float64 {
	var m float64
	for _, w := range c.Workers {
		if w.FinishedAt > m {
			m = w.FinishedAt
		}
	}
	return m
}

// ThroughputSamplesPerSec returns aggregate training throughput: total
// samples processed per second of virtual time (the paper's "images/sec").
func (c *Collector) ThroughputSamplesPerSec(batch int) float64 {
	t := c.MakespanSec()
	if t == 0 {
		return 0
	}
	return float64(c.TotalIters()*batch) / t
}

// MeanBreakdown averages the per-worker breakdowns.
func (c *Collector) MeanBreakdown() Breakdown {
	var b Breakdown
	if len(c.Workers) == 0 {
		return b
	}
	for _, w := range c.Workers {
		b.Merge(w.Breakdown)
	}
	for i := range b {
		b[i] /= float64(len(c.Workers))
	}
	return b
}

// IterSpread returns the min and max completed iterations across workers —
// a direct view of how asynchronous algorithms let fast workers run ahead.
func (c *Collector) IterSpread() (min, max int) {
	if len(c.Workers) == 0 {
		return 0, 0
	}
	min, max = c.Workers[0].Iters, c.Workers[0].Iters
	for _, w := range c.Workers[1:] {
		if w.Iters < min {
			min = w.Iters
		}
		if w.Iters > max {
			max = w.Iters
		}
	}
	return min, max
}

// BestTestErr returns the minimum traced test error (1.0 if no trace).
func (c *Collector) BestTestErr() float64 {
	best := 1.0
	for _, tp := range c.Trace {
		if tp.TestErr < best {
			best = tp.TestErr
		}
	}
	return best
}

// TimeToErr returns the earliest virtual time at which the traced test
// error reached target, or +Inf (ok=false) if it never did.
func (c *Collector) TimeToErr(target float64) (float64, bool) {
	pts := append([]TracePoint(nil), c.Trace...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].VirtualSec < pts[j].VirtualSec })
	for _, tp := range pts {
		if tp.TestErr <= target {
			return tp.VirtualSec, true
		}
	}
	return 0, false
}
