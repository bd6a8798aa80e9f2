package des

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestKillNeverStartedDoesNotRunBody: a process whose start event the engine
// never reached is discarded by Kill, not resumed into its body. (The
// goroutine engine ran the body up to its first yield here.)
func TestKillNeverStartedDoesNotRunBody(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("never", func(p *Proc) {
		ran = true
		p.Sleep(1)
	})
	e.Kill()
	if ran {
		t.Fatal("Kill ran the body of a process that had not started")
	}
	if report := e.Run(0); len(report) != 0 || ran {
		t.Fatalf("after Kill: report %v, ran %v; want nothing left to run", report, ran)
	}
}

// TestKillLeavesNoGoroutines: engines that end the way experiments do — with
// server loops blocked on their inbox and a process parked past the horizon —
// give every goroutine back on Kill.
func TestKillLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		e := NewEngine()
		q := NewQueue[int](e)
		for s := 0; s < 3; s++ {
			e.Spawn("server", func(p *Proc) {
				for {
					q.Recv(p)
				}
			})
		}
		e.Spawn("sleeper", func(p *Proc) { p.Sleep(100) })
		e.Spawn("client", func(p *Proc) {
			p.Sleep(1)
			q.Push(1)
		})
		if report := e.Run(10); len(report) != 4 {
			t.Fatalf("engine %d: report %v, want three servers and the sleeper", i, report)
		}
		e.Kill()
	}
	// A finished coroutine's goroutine exits on its own schedule.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Kill, %d before the first engine", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProcPanicSurfacesFromRun: a panic in a process body comes out of Run on
// the caller's goroutine, where it can be recovered, with the process's name
// and stack; the engine can still be killed, and the processes that did not
// panic still unwind.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	unwound := false
	e.Spawn("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		q.Recv(p)
	})
	e.Spawn("faulty", func(p *Proc) {
		p.Sleep(1)
		explode()
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run(0)
	}()
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run panicked with %#v, want a *ProcPanic", got)
	}
	if pp.Proc != "faulty" || pp.Value != "boom" {
		t.Fatalf("ProcPanic{Proc: %q, Value: %v}, want faulty/boom", pp.Proc, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "des.explode") || !strings.Contains(pp.Error(), "boom") {
		t.Fatalf("panic lost the process's stack or value:\n%v", pp)
	}
	if e.Now() != 1 {
		t.Fatalf("clock at %v after the panic, want 1", e.Now())
	}
	e.Kill()
	if !unwound {
		t.Fatal("Kill after a process panic did not unwind the other process")
	}
}

func explode() { panic("boom") }
