package des

import "testing"

// BenchmarkEngineSleepers is the benchmark ladder's des.events_per_s probe:
// 64 processes sleeping in lock step for 200 rounds, so every event is a
// heap push, a heap pop and one switch into a process and back.
func BenchmarkEngineSleepers(b *testing.B) {
	const procs, rounds = 64, 200
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for w := 0; w < procs; w++ {
			e.Spawn("sleeper", func(p *Proc) {
				for k := 0; k < rounds; k++ {
					p.Sleep(1)
				}
			})
		}
		e.Run(0)
		events += e.Events()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkQueuePingPong bounces one item between two processes through two
// mailboxes: per round trip, two pushes, two same-instant wake-ups and two
// resumes, with the clock standing still.
func BenchmarkQueuePingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	ping, pong := NewQueue[int](e), NewQueue[int](e)
	e.Spawn("echo", func(p *Proc) {
		for {
			pong.Push(ping.Recv(p))
		}
	})
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Push(i)
			pong.Recv(p)
		}
	})
	b.ResetTimer()
	e.Run(0)
	b.StopTimer()
	e.Kill()
}

// BenchmarkEngineEventThroughput chains callbacks: heap and dispatch alone,
// no process.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine()
	var next func(t Time)
	count := 0
	next = func(t Time) {
		count++
		if count < b.N {
			e.Schedule(t+1, func() { next(t + 1) })
		}
	}
	b.ResetTimer()
	e.Schedule(0, func() { next(0) })
	e.Run(0)
}

// BenchmarkProcContextSwitch is one process sleeping b.N times: the cost of
// a resume with an empty heap.
func BenchmarkProcContextSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run(0)
}
