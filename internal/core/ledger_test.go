package core

import (
	"testing"

	"disttrain/internal/metrics"
	"disttrain/internal/trace"
)

// TestLedgerBook: a step's wire seconds are network time and the rest its
// phase's; a compute step has no wire; a second thread books into the same
// breakdown on a track of its own; without a tracer a step allocates nothing.
func TestLedgerBook(t *testing.T) {
	var bd metrics.Breakdown
	tr := trace.New()
	l := NewLedger(&bd, tr, tr.Now, 2, 5)
	l.Book(StepCompute, 1, 3, 0)
	l.Book(StepGatherSum, 3, 4, 0.25)
	l.Thread().Book(StepSwap, 3, 3.5, 0.5) // all wire: nothing left to global-agg
	want := metrics.Breakdown{metrics.Compute: 2, metrics.LocalAgg: 0.75, metrics.Network: 0.75}
	if got := l.Breakdown(); got != want {
		t.Fatalf("breakdown %v, want %v", got, want)
	}
	if tr.Len() != 3 {
		t.Fatalf("%d spans, want 3", tr.Len())
	}

	quiet := NewLedger(&bd, nil, nil, 0, 0)
	if n := testing.AllocsPerRun(100, func() { quiet.Book(StepAllReduce, 0, 1, 0.5) }); n != 0 {
		t.Fatalf("booking without a tracer allocates %v times", n)
	}
}
