package des

import (
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(2, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(3, func() { order = append(order, 3) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Spawn("p", func(p *Proc) {
		p.Sleep(1.5)
		at = append(at, p.Now())
		p.Sleep(0.5)
		at = append(at, p.Now())
	})
	e.Run(0)
	if len(at) != 2 || at[0] != 1.5 || at[1] != 2.0 {
		t.Fatalf("at = %v", at)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(1.0)
				trace = append(trace, "a")
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(1.0)
				trace = append(trace, "b")
			}
		})
		e.Run(0)
		return trace
	}
	t1 := run()
	t2 := run()
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("nondeterministic traces: %v vs %v", t1, t2)
		}
	}
	// Spawn order fixes the tie-break: a before b at each step.
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if t1[i] != want[i] {
			t.Fatalf("trace = %v", t1)
		}
	}
}

func TestQueueBlockingRecv(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got int
	var recvAt Time
	e.Spawn("recv", func(p *Proc) {
		got = q.Recv(p)
		recvAt = p.Now()
	})
	e.Spawn("send", func(p *Proc) {
		p.Sleep(2)
		q.Push(42)
	})
	e.Run(0)
	if got != 42 {
		t.Fatalf("got %d", got)
	}
	if recvAt != 2 {
		t.Fatalf("recv at %v, want 2", recvAt)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Recv(p))
		}
	})
	q.Push(1)
	q.Push(2)
	q.Push(3)
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	sum := 0
	for i := 0; i < 3; i++ {
		e.Spawn("c", func(p *Proc) {
			sum += q.Recv(p)
		})
	}
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(1)
		q.Push(10)
		q.Push(20)
		q.Push(30)
	})
	e.Run(0)
	if sum != 60 {
		t.Fatalf("sum = %d; some consumer did not receive", sum)
	}
	if stuck := e.Stuck(); len(stuck) != 0 {
		t.Fatalf("stuck: %v", stuck)
	}
}

func TestTryRecv(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	if _, ok := q.TryRecv(); ok {
		t.Fatal("TryRecv on empty queue returned ok")
	}
	q.Push("x")
	v, ok := q.TryRecv()
	if !ok || v != "x" {
		t.Fatalf("TryRecv = %q, %v", v, ok)
	}
}

func TestStuckDetection(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	e.Spawn("starved", func(p *Proc) {
		q.Recv(p) // never satisfied
	})
	e.Spawn("fine", func(p *Proc) {
		p.Sleep(1)
	})
	e.Run(0)
	stuck := e.Stuck()
	if len(stuck) != 1 || stuck[0] != "starved" {
		t.Fatalf("stuck = %v", stuck)
	}
	e.Kill()
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++ })
	e.Schedule(10, func() { fired++ })
	e.Run(5)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("now = %v, want horizon 5", e.Now())
	}
	e.Run(0) // drain the rest
	if fired != 2 {
		t.Fatalf("fired = %d after drain", fired)
	}
}

func TestKillUnwindsProcs(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	cleanedUp := false
	e.Spawn("server", func(p *Proc) {
		defer func() { cleanedUp = true }()
		for {
			q.Recv(p)
		}
	})
	e.Run(0)
	e.Kill()
	if !cleanedUp {
		t.Fatal("deferred cleanup did not run on Kill")
	}
}

func TestCallbackWakesProc(t *testing.T) {
	// A scheduled callback (not a proc) pushing into a queue must wake the
	// blocked receiver at the callback's time.
	e := NewEngine()
	q := NewQueue[int](e)
	var at Time
	e.Spawn("r", func(p *Proc) {
		q.Recv(p)
		at = p.Now()
	})
	e.Schedule(7, func() { q.Push(1) })
	e.Run(0)
	if at != 7 {
		t.Fatalf("woken at %v, want 7", at)
	}
}

func TestManyProcsStress(t *testing.T) {
	e := NewEngine()
	const n = 200
	q := NewQueue[int](e)
	done := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(float64(i) * 0.001)
			q.Push(i)
		})
	}
	e.Spawn("collector", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.Recv(p)
			done++
		}
	})
	e.Run(0)
	if done != n {
		t.Fatalf("collected %d of %d", done, n)
	}
}

func TestEventsCounter(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	e.Run(0)
	if e.Events() != 2 {
		t.Fatalf("events = %d", e.Events())
	}
}

// TestPushAtEqualsScheduledPush: PushAt is Schedule + Push without the
// closure — the same deliveries in the same order at the same times, and the
// same number of events (the benchmark's des.events_per_s divides by it).
func TestPushAtEqualsScheduledPush(t *testing.T) {
	type got struct {
		at Time
		v  int
	}
	run := func(pushAt func(q *Queue[int], t Time, v int)) (log []got, events uint64) {
		e := NewEngine()
		q := NewQueue[int](e)
		for w := 0; w < 4; w++ {
			e.Spawn("sender", func(p *Proc) {
				for k := 0; k < 25; k++ {
					// Ties across senders, deliveries at the current instant
					// (k%3 == 0) and out-of-order arrival times.
					pushAt(q, p.Now()+Time(k%3), 100*w+k)
					if k%5 == 4 {
						p.Sleep(0.5)
					}
				}
			})
		}
		e.Spawn("receiver", func(p *Proc) {
			for i := 0; i < 100; i++ {
				v := q.Recv(p)
				log = append(log, got{p.Now(), v})
			}
		})
		e.Run(0)
		if stuck := e.Stuck(); len(stuck) != 0 {
			t.Fatalf("stuck: %v", stuck)
		}
		return log, e.Events()
	}
	closureLog, closureEvents := run(func(q *Queue[int], at Time, v int) {
		q.eng.Schedule(at, func() { q.Push(v) })
	})
	slotLog, slotEvents := run((*Queue[int]).PushAt)
	if len(slotLog) != 100 || len(closureLog) != 100 {
		t.Fatalf("received %d and %d of 100", len(slotLog), len(closureLog))
	}
	for i := range slotLog {
		if slotLog[i] != closureLog[i] {
			t.Fatalf("delivery %d: PushAt %+v, Schedule+Push %+v", i, slotLog[i], closureLog[i])
		}
	}
	if slotEvents != closureEvents {
		t.Fatalf("PushAt run counted %d events, Schedule+Push run %d", slotEvents, closureEvents)
	}
}

// TestQueueZeroesPoppedSlots: a mailbox reuses its buffers, so a slot an item
// has left must not keep the item's payload reachable.
func TestQueueZeroesPoppedSlots(t *testing.T) {
	e := NewEngine()
	q := NewQueue[*int](e)
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 40; i++ {
			q.Recv(p)
		}
	})
	for i := 0; i < 10; i++ {
		q.Push(new(int))
		q.PushAt(Time(i%4), new(int))
	}
	e.Spawn("late", func(p *Proc) {
		p.Sleep(5)
		for i := 0; i < 10; i++ {
			q.Push(new(int))
			q.PushAt(p.Now()+1, new(int))
		}
	})
	e.Run(0)
	if q.Len() != 0 || len(q.free) != len(q.slots) {
		t.Fatalf("%d items queued, %d of %d slots free; want a drained queue", q.Len(), len(q.free), len(q.slots))
	}
	for i, v := range q.slots {
		if v != nil {
			t.Errorf("slot %d of %d still holds an item its receiver took", i, len(q.slots))
		}
	}
	if len(q.slots) > 20 {
		t.Errorf("%d slots for at most 20 items queued or in flight: slots are not reused", len(q.slots))
	}
}

// TestRunBehindClockLeavesInstantQueued: a horizon the clock has already
// passed runs nothing and does not move the clock back; wake-ups due at the
// current instant are reported as waiting, then run.
func TestRunBehindClockLeavesInstantQueued(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run(0)
	ran := false
	e.Spawn("starter", func(p *Proc) { ran = true })
	report := e.Run(5)
	if ran || e.Now() != 10 {
		t.Fatalf("Run(5) at t=10: ran %v, clock %v; want nothing run and the clock at 10", ran, e.Now())
	}
	if len(report) != 1 || report[0].String() != "starter (waiting until t=10)" {
		t.Fatalf("report %v, want the starter waiting until t=10", report)
	}
	if report := e.Run(0); !ran || len(report) != 0 {
		t.Fatalf("Run(0): ran %v, report %v", ran, report)
	}
}
