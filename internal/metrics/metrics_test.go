package metrics

import (
	"testing"
)

func TestBreakdownAddAndTotal(t *testing.T) {
	var b Breakdown
	b.Add(Compute, 2)
	b.Add(Network, 1)
	b.Add(GlobalAgg, -5) // clamped
	if b.Total() != 3 {
		t.Fatalf("total = %v", b.Total())
	}
	if b.Frac(Compute) != 2.0/3 {
		t.Fatalf("frac = %v", b.Frac(Compute))
	}
}

func TestBreakdownFracEmpty(t *testing.T) {
	var b Breakdown
	if b.Frac(Compute) != 0 {
		t.Fatal("empty breakdown frac not 0")
	}
}

func TestBreakdownMerge(t *testing.T) {
	var a, b Breakdown
	a.Add(Compute, 1)
	b.Add(Compute, 2)
	b.Add(LocalAgg, 3)
	a.Merge(b)
	if a[Compute] != 3 || a[LocalAgg] != 3 {
		t.Fatalf("merged = %v", a)
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{Compute: "compute", LocalAgg: "local-agg", GlobalAgg: "global-agg", Network: "network"}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%d -> %q", p, p.String())
		}
	}
}

func TestCollectorThroughput(t *testing.T) {
	c := NewCollector(2)
	c.Workers[0] = Worker{Iters: 10, FinishedAt: 5}
	c.Workers[1] = Worker{Iters: 10, FinishedAt: 4}
	// 20 iters * 32 batch / 5 sec = 128 samples/sec
	if got := c.ThroughputSamplesPerSec(32); got != 128 {
		t.Fatalf("throughput = %v", got)
	}
	if c.MakespanSec() != 5 {
		t.Fatalf("makespan = %v", c.MakespanSec())
	}
	if c.TotalIters() != 20 {
		t.Fatalf("iters = %v", c.TotalIters())
	}
}

func TestThroughputEmpty(t *testing.T) {
	c := NewCollector(1)
	if c.ThroughputSamplesPerSec(10) != 0 {
		t.Fatal("zero-time throughput should be 0")
	}
}

func TestIterSpread(t *testing.T) {
	c := NewCollector(3)
	c.Workers[0].Iters = 5
	c.Workers[1].Iters = 9
	c.Workers[2].Iters = 7
	min, max := c.IterSpread()
	if min != 5 || max != 9 {
		t.Fatalf("spread = %d..%d", min, max)
	}
}

func TestMeanBreakdown(t *testing.T) {
	c := NewCollector(2)
	c.Workers[0].Breakdown.Add(Compute, 2)
	c.Workers[1].Breakdown.Add(Compute, 4)
	m := c.MeanBreakdown()
	if m[Compute] != 3 {
		t.Fatalf("mean = %v", m)
	}
}

func TestTraceQueries(t *testing.T) {
	c := NewCollector(1)
	c.AddTrace(TracePoint{VirtualSec: 1, TestErr: 0.5})
	c.AddTrace(TracePoint{VirtualSec: 2, TestErr: 0.2})
	c.AddTrace(TracePoint{VirtualSec: 3, TestErr: 0.3})
	if c.BestTestErr() != 0.2 {
		t.Fatalf("best = %v", c.BestTestErr())
	}
	at, ok := c.TimeToErr(0.25)
	if !ok || at != 2 {
		t.Fatalf("time to 0.25 = %v, %v", at, ok)
	}
	if _, ok := c.TimeToErr(0.1); ok {
		t.Fatal("unreachable target reported reached")
	}
}

func TestEmptyTraceDefaults(t *testing.T) {
	c := NewCollector(0)
	if c.BestTestErr() != 1 {
		t.Fatal("empty trace should report error 1.0")
	}
	if _, ok := c.TimeToErr(0.5); ok {
		t.Fatal("empty trace reported a reach time")
	}
}
