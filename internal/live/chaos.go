package live

import (
	"disttrain/internal/core"
	"disttrain/internal/fault"
)

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
