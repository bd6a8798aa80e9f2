package live

import (
	"time"

	"disttrain/internal/core"
	"disttrain/internal/fault"
)

// rankFaults is one worker rank's view of the run's fault schedule: the
// simulator's own fault.Injector, asked in mesh ranks on the wall clock since
// epoch, the run's START. A worker rank sits on its machine of the cluster's
// placement and the PS rank on the simulator's PS shard 0's. It is the hook
// the rank's mesh sends ask (xport.Faults), where, as on the simulated
// network, only links between two machines fault, and what stretches the
// rank's passes (Injector.ComputeMult). The injector's drop stream is the
// rank's own.
type rankFaults struct {
	inj   *fault.Injector
	cfg   *core.Config
	epoch time.Time
}

// newRankFaults is rank's view of cfg's fault schedule from epoch on; nil
// when there is none.
func newRankFaults(cfg *core.Config, rank int, epoch time.Time) *rankFaults {
	if cfg.Faults.Empty() {
		return nil
	}
	inj := fault.NewInjector(cfg.Faults, cfg.Workers, cfg.Cluster.Machines,
		cfg.Workload.MeanIterSec(), cfg.Seed+uint64(rank))
	return &rankFaults{inj: inj, cfg: cfg, epoch: epoch}
}

// machine is the machine mesh rank r runs on.
func (f *rankFaults) machine(r int) int {
	if r >= f.cfg.Workers {
		return f.cfg.ShardMachine(0)
	}
	return f.cfg.Cluster.MachineOfWorker(r)
}

// Partitioned, Cut and Slow make rankFaults the mesh's xport.Faults: the
// injector's answers for the machines ranks from and to run on.
func (f *rankFaults) Partitioned(t float64, from, to int) bool {
	return f.inj.Partitioned(t, f.machine(from), f.machine(to))
}

func (f *rankFaults) Cut(t float64, from, to int) bool {
	return f.inj.Cut(t, f.machine(from), f.machine(to))
}

func (f *rankFaults) Slow(t float64, from, to int) float64 {
	if m, n := f.machine(from), f.machine(to); m != n {
		return f.inj.Slow(t, m, n)
	}
	return 1
}

// chaos projects a crash schedule onto the live run. It wraps the exact
// injector the simulator builds — same arguments, same seed — so both
// runtimes evaluate the identical pure membership function: which workers
// run which 1-based iteration. That shared function is what lets the live
// coordinator, the PS, and every worker agree on each round's membership
// without exchanging any liveness messages, exactly as the simulator's
// elastic mode does.
//
// Crash times given in seconds are quantized on the simulator's nominal
// iteration clock (Workload.MeanIterSec); live workers die when they reach
// the quantized iteration boundary, and restart delays are served in real
// wall-clock seconds.
type chaos struct {
	cfg *core.Config
	inj *fault.Injector
}

// newChaos compiles cfg's crash schedule; nil when it has none (the
// membership is then the full fixed cohort).
func newChaos(cfg *core.Config) *chaos {
	if cfg.Faults.Empty() || !cfg.Faults.HasKind(fault.Crash) {
		return nil
	}
	inj := fault.NewInjector(cfg.Faults, cfg.Workers, cfg.Cluster.Machines,
		cfg.Workload.MeanIterSec(), cfg.Seed)
	return &chaos{cfg: cfg, inj: inj}
}

// owesResume reports whether worker p, back from a dead window at iteration
// it, owes worker q a RESUME: q runs it in the incarnation that ran p's last
// iteration before the window, so it may hold a connection to the dead one.
func (c *chaos) owesResume(p, q, it int) bool {
	if c == nil || !c.inj.AliveAtIter(p, it) {
		return false
	}
	last := it - 1
	for last > 0 && !c.inj.AliveAtIter(p, last) {
		last--
	}
	d := c.firstDeath(q, last)
	return last > 0 && last < it-1 && (d == 0 || d > it)
}

// ran is how many of the iterations 1..upto worker w runs.
func (c *chaos) ran(w, upto int) int {
	n := 0
	for it := 1; it <= upto; it++ {
		if c.inj.AliveAtIter(w, it) {
			n++
		}
	}
	return n
}

// firstDeath is the first iteration >= from that worker w does not run, or
// 0 if it runs every one to the end of the run.
func (c *chaos) firstDeath(w, from int) int {
	for it := from; it <= c.cfg.Iters; it++ {
		if !c.inj.AliveAtIter(w, it) {
			return it
		}
	}
	return 0
}

// hasCrash reports whether the schedule ever kills worker w within the run;
// never without a crash schedule (nil c).
func (c *chaos) hasCrash(w int) bool { return c != nil && c.firstDeath(w, 1) != 0 }

// finishes reports whether worker w completes the run (executes the final
// iteration and reports DONE). A worker dead at cfg.Iters never returns.
func (c *chaos) finishes(w int) bool { return c.inj.AliveAtIter(w, c.cfg.Iters) }

// maxRestart is the largest scheduled restart delay (seconds) for worker w;
// the coordinator's lease watchdog budgets this much extra silence for a
// dead worker awaiting its restart.
func (c *chaos) maxRestart(w int) float64 {
	var d float64
	for it := 1; it <= c.cfg.Iters; it++ {
		d = max(d, c.inj.RestartDelay(w, it)) // 0 where w is alive
	}
	return d
}
